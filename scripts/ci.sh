#!/usr/bin/env sh
# CI-grade verification: formatting, vet, build, the full test suite
# under the race detector, and a benchmark smoke run. The
# distributor/worker hand-off is concurrent by design, so every PR
# runs with -race.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

# staticcheck is optional tooling: gate on it when present, skip
# gracefully (with a note) when the box doesn't have it installed.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck not installed; skipping"
fi

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# Topology defaults resolve from GOMAXPROCS: run the runtime and the
# root differentials at several core counts so a default that only
# holds on one of them cannot hide.
echo "== go test -cpu 1,2,4 (runtime topology)"
go test -cpu 1,2,4 ./internal/runtime/ .

# Focused race pass over the telemetry layer and its runtime callers:
# the live-scrape contract (lock-free counters read while N workers
# write) is exactly what the race detector exercises here, with the
# stress tests' higher iteration counts.
echo "== go test -race (telemetry focus)"
go test -race -count=2 ./internal/telemetry/ ./internal/runtime/

# Smoke-run the pattern kernel benchmarks so a change that breaks the
# steady-state harness (or its alloc accounting) fails CI rather than
# the next perf investigation.
echo "== bench smoke (pattern kernel)"
go test -run=NONE -bench=Pattern -benchtime=100x ./internal/algebra/

# Zero-allocation guard: the PR1/PR2/PR4 hot paths must stay at 0
# allocs/op even with instrumentation compiled in. Parse -benchmem
# output and fail on any nonzero allocs/op figure.
check_zero_allocs() {
    out=$(go test -run=NONE -bench="$1" -benchmem -benchtime=200x "$2")
    echo "$out"
    bad=$(echo "$out" | awk '/allocs\/op/ && $(NF-1) != 0 { print }')
    if [ -n "$bad" ]; then
        echo "bench-guard: nonzero allocs/op on a zero-alloc hot path:" >&2
        echo "$bad" >&2
        exit 1
    fi
}
echo "== bench guard (0 allocs/op hot paths)"
check_zero_allocs 'BenchmarkPatternTwoStepJoin$' ./internal/algebra/
check_zero_allocs 'BenchmarkPatternExtensionHeavy$' ./internal/algebra/
check_zero_allocs 'BenchmarkPatternNegationHeavy$' ./internal/algebra/
check_zero_allocs 'BenchmarkPatternNegationProbe$' ./internal/algebra/
check_zero_allocs 'BenchmarkDistributor$' ./internal/runtime/
check_zero_allocs 'BenchmarkShardRouter$' ./internal/runtime/
check_zero_allocs 'BenchmarkSpscRing$' ./internal/runtime/
check_zero_allocs 'BenchmarkIngestReader$' ./internal/event/

# PR 8: the dispatch-bound hot paths must stay allocation-free with
# the stage tracer enabled at sample rate 1 (every tick spanned) —
# pooled spans, seqlock recorder slots and atomic histograms only.
echo "== bench guard (0 allocs/op with stage tracing enabled)"
check_zero_allocs 'BenchmarkDistributorTraced$' ./internal/runtime/
check_zero_allocs 'BenchmarkEngineShardedTraced$' ./internal/runtime/

# PR 9: derived-event construction itself must be allocation-free in
# the sharded steady state — every event derives through the slab
# arena and slabs recycle behind the watermark.
echo "== bench guard (0 allocs/op derived-event arena)"
check_zero_allocs 'BenchmarkEngineDerivedHeavy$' ./internal/runtime/

# Whole-run alloc ceiling: unlike the steady-state harnesses above,
# BenchmarkEngineSharded rebuilds a full Run per op, so per-run
# incidentals (goroutines, ring channels, registration closures)
# remain. The ceiling catches construction cost creeping back into
# the per-run path; pre-arena this figure was 849 allocs/op.
check_alloc_ceiling() {
    out=$(go test -run=NONE -bench="$1" -benchmem -benchtime=30x "$2")
    echo "$out"
    bad=$(echo "$out" | awk -v max="$3" '/allocs\/op/ && $(NF-1) + 0 > max + 0 { print }')
    if [ -n "$bad" ]; then
        echo "bench-guard: allocs/op above ceiling $3:" >&2
        echo "$bad" >&2
        exit 1
    fi
}
echo "== bench guard (whole-run alloc ceilings)"
check_alloc_ceiling 'BenchmarkEngineSharded$/shards=2$' . 50
check_alloc_ceiling 'BenchmarkEngineContextAware$' . 7000

# Kernel differential under the race detector, at higher counts than
# the suite-wide pass: the shared-run automaton must stay emission-
# identical to the per-combination reference evaluator refPattern
# (internal/algebra/pattern_ref_test.go), the pipelined multi-worker
# engine must reproduce the pinned toll digests, and the negation
# probe must agree with refPattern under disorder and snapshot
# restore.
echo "== go test -race (kernel differential focus)"
go test -race -count=2 -run 'TestKernelDifferentialFuzz|TestPatternKernelEquivalence|TestNegationDifferential' ./internal/algebra/
go test -race -count=2 -run 'TestPatternKernelsByteIdentical' .

# Sharded runtime differential under the race detector: shards>1 must
# stay byte-identical to the shards=1 legacy pipeline (ring hand-off,
# per-shard completion marks, watermark and ordered output merge all
# race-checked at higher counts than the suite-wide pass).
echo "== go test -race (sharded runtime differential)"
go test -race -count=2 -run 'TestShardedMatchesLegacy|TestShardedOrderedOutput|TestSpscRing' ./internal/runtime/
go test -race -count=2 -run 'TestShardedTollByteIdentical' .

# Derived-event arena differential under the race detector: arena
# and heap construction must stay byte-identical across every
# execution mode while tiny slabs recycle mid-run, and cached-run
# reuse must reproduce a run exactly (PR 9, DESIGN.md §3.8).
echo "== go test -race (derived arena differential)"
go test -race -count=2 -run 'TestDerivedChainSurvivesReclamation|TestRunReuseIdenticalOutputs' ./internal/runtime/
go test -race -run 'TestDerivedArenaTollByteIdentical' .

# PR 10: crash recovery differential under the race detector — a run
# killed at a tick boundary and recovered (snapshot restore + WAL
# replay + live dedup) must reproduce an uninterrupted run's output
# byte for byte on both runtimes, plus the WAL torn-write fuzz and
# snapshot round-trip property tests. The WAL-disabled hot paths are
# covered by the 0 allocs/op guards above (BenchmarkDistributor and
# BenchmarkShardRouter run without a durable dir, so durability may
# add nothing but nil checks there).
echo "== go test -race (durability: crash recovery differential)"
go test -race -count=2 -run 'TestCrashRecoveryDifferential|TestDurableResumeAfterCleanFinish|TestDurableResumeOverReader' ./internal/runtime/
go test -race -count=2 ./internal/durability/ ./internal/wire/

echo "== ci OK"
