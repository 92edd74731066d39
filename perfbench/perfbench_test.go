package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/pam"
)

// smallToll is toll-replay on a stream small enough for unit tests:
// it still reaches congestion and an accident, so every derived type
// occurs.
func smallToll() workload {
	w := workloads["toll-replay"]
	w.generate = func(reg *event.Registry, seed int64) ([]*event.Event, error) {
		cfg := linearroad.DefaultConfig()
		cfg.Segments = 4
		cfg.Duration = 1800
		cfg.Seed = seed
		return linearroad.Generate(cfg, reg)
	}
	return w
}

func smallPAM() workload {
	w := workloads["pam-paced"]
	w.generate = func(reg *event.Registry, seed int64) ([]*event.Event, error) {
		cfg := pam.DefaultConfig()
		cfg.Duration = 300 * cfg.Every
		cfg.Seed = seed
		return pam.Generate(cfg, reg)
	}
	return w
}

func newTestBench(t *testing.T, w workload) *bench {
	t.Helper()
	in, err := buildInput(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	return &bench{w: w, in: in, tmpDir: t.TempDir(), lagBuf: make([]int64, len(in.ticks))}
}

func TestDueTimeMapping(t *testing.T) {
	in, err := buildInput(smallPAM(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(in.ticks), 300; got != want {
		t.Fatalf("%d ticks, want %d", got, want)
	}
	const start = int64(1_000_000_000)
	// PAM readings arrive every 5 s of application time, so the tick
	// at t=35 is the eighth (k=7) and is due 7 periods after start.
	due, ok := in.index.dueNs(35, start, time.Millisecond)
	if !ok || due != start+7*int64(time.Millisecond) {
		t.Fatalf("dueNs(35) = %d, %t; want %d", due, ok, start+7*int64(time.Millisecond))
	}
	if _, ok := in.index.dueNs(36, start, time.Millisecond); ok {
		t.Fatal("a time between ticks mapped to a due time")
	}
	// Every tick's lines hold exactly its events.
	for k, tk := range in.ticks {
		if n := bytes.Count(tk.lines, []byte("\n")); n != tk.events || n != pam.Subjects {
			t.Fatalf("tick %d: %d lines, %d events, want %d", k, n, tk.events, pam.Subjects)
		}
	}

	// The source counts what the batches it hands over hold.
	m, err := model.CompileSource(smallPAM().modelSource)
	if err != nil {
		t.Fatal(err)
	}
	src := newSource(bytes.NewReader(in.text), m.Registry, true)
	var b event.Batch
	src.NextBatch(&b)
	if src.ticks != 37 || src.events != 37*pam.Subjects {
		t.Fatalf("first batch: %d ticks, %d events; want the 512-event batch target rounded up to 37 ticks", src.ticks, src.events)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	const n = 1000
	samples := make([]int64, n)
	for i := range samples {
		samples[i] = int64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 500}, {0.99, 990}, {1, 1000}, {0.0001, 1}} {
		got, ok := percentile(samples, tc.q)
		if !ok || got != tc.want {
			t.Errorf("percentile(%v) of %d = %d, want %d", tc.q, n, got, tc.want)
		}
	}
	// The p99 of 1000 samples leaves ten samples beyond it.
	p99, _ := percentile(samples, 0.99)
	above := 0
	for _, v := range samples {
		if v > p99 {
			above++
		}
	}
	if above != 10 {
		t.Errorf("%d samples above p99, want 10", above)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	if v, _ := percentile([]int64{42}, 0.99); v != 42 {
		t.Errorf("p99 of one sample = %d, want 42", v)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// collect runs the workload's stream through a fresh engine and
// returns its derived events, cloned out of the engine's arena.
func collect(t *testing.T, w workload, in *input, shards int) ([]*event.Event, digest) {
	t.Helper()
	m, err := model.CompileSource(w.modelSource)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := newSink(m.Registry, w.sinks, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(m, core.Config{
		PartitionBy: w.partitionBy, Shards: shards, OnOutput: sk.onOutput, CollectOutputs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Run(newSource(bytes.NewReader(in.text), m.Registry, false))
	if err != nil {
		t.Fatal(err)
	}
	return st.Outputs, sk.digest()
}

func TestDigestIndependentOfShardsAndOrder(t *testing.T) {
	w := smallToll()
	in, err := buildInput(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	outs, d1 := collect(t, w, in, 1)
	_, d2 := collect(t, w, in, 2)
	if d1 != d2 {
		t.Fatalf("digest at Shards=1 %v, at Shards=2 %v", d1, d2)
	}
	if d1.count != uint64(len(outs)) || d1.count == 0 {
		t.Fatalf("digest counts %d events, engine collected %d", d1.count, len(outs))
	}

	// Feeding the same events to a sink in another order, from another
	// compile of the model, gives the same digest.
	m, err := model.CompileSource(w.modelSource)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := newSink(m.Registry, w.sinks, nil)
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(9)).Perm(len(outs))
	for _, i := range perm {
		e := *outs[i]
		sc, _ := m.Registry.Lookup(e.Schema.Name())
		e.Schema = sc
		sk.onOutput(&e)
	}
	if got := sk.digest(); got != d1 {
		t.Fatalf("shuffled digest %v, want %v", got, d1)
	}
}

func TestTamperedOutputFailsRun(t *testing.T) {
	b := newTestBench(t, smallPAM())
	r, err := b.run(spec{shards: 1})
	if err != nil || r == nil {
		t.Fatalf("reference run: %v, %v (failures %v)", r, err, b.failures)
	}
	if b.failed != 0 || b.attempted != b.in.events {
		t.Fatalf("clean run booked %d failed of %d attempted", b.failed, b.attempted)
	}

	// The same outputs with one value changed: the digest gate must
	// fail the whole run.
	outs, d := collect(t, b.w, b.in, 1)
	if d != r.digest {
		t.Fatalf("collected digest %v, run digest %v", d, r.digest)
	}
	m, err := model.CompileSource(b.w.modelSource)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := newSink(m.Registry, b.w.sinks, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		e := *o
		e.Schema, _ = m.Registry.Lookup(o.Schema.Name())
		if i == len(outs)/2 {
			e.Values = append([]event.Value(nil), o.Values...)
			e.Values[1] = event.Int64(e.Values[1].Int + 1)
		}
		sk.onOutput(&e)
	}
	tampered := *r
	tampered.digest = sk.digest()
	if b.check(&tampered) {
		t.Fatal("a tampered output passed the check")
	}
	if b.failed != b.in.events || b.attempted != 2*b.in.events {
		t.Fatalf("tampered run booked %d failed of %d attempted; want %d of %d",
			b.failed, b.attempted, b.in.events, 2*b.in.events)
	}

	// A run that consumed the wrong number of events fails too.
	short := *r
	st := *r.stats
	st.Events--
	short.stats = &st
	if b.check(&short) {
		t.Fatal("a run missing an event passed the check")
	}
}

func TestDurableRunsAgreeAndResume(t *testing.T) {
	b := newTestBench(t, smallToll())
	if r, err := b.run(spec{shards: 2}); err != nil || r == nil {
		t.Fatalf("plain run: %v (failures %v)", err, b.failures)
	}
	// The durable run must reproduce the plain run's digest.
	s := samples{}
	if err := b.durableRuns(s); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("failures: %v", b.failures)
	}
	if got, want := s["durability.wal_frames"], float64(len(b.in.ticks)); len(got) != 1 || got[0] != want {
		t.Errorf("WAL frames %v, want one sample of %v (a frame per tick)", got, want)
	}
	if got := s["durability.recovery_ms"]; len(got) != 1 || got[0] <= 0 {
		t.Errorf("recovery time samples %v", got)
	}
}

// TestIterationReportsEveryMetric checks that one iteration samples
// every end-to-end metric, on a closed-loop workload (latency from its
// extra open-loop run) and on an open-loop one.
func TestIterationReportsEveryMetric(t *testing.T) {
	for _, w := range []workload{smallToll(), smallPAM()} {
		b := newTestBench(t, w)
		s := samples{}
		if err := b.iteration(s); err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 {
			t.Fatalf("%s: failures %v", w.name, b.failures)
		}
		for _, d := range endToEnd {
			xs := s[d.name]
			if len(xs) == 0 || xs[0] <= 0 {
				t.Errorf("%s: %s samples %v", w.name, d.name, xs)
			}
		}
		runs := 2 // main and single-shard runs
		if w.closedLoop {
			runs++ // and the latency run
		}
		if got, want := len(s["setup_s"]), runs*setupsPerRun; got != want {
			t.Errorf("%s: %d setup_s samples, want %d", w.name, got, want)
		}
	}
}

// TestBenchmarkManifest keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !sameSet(got, want) {
		t.Errorf("manifest workloads %v, program %v", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: manifest %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd)
	check("per_layer", mf.PerLayer, perLayer)
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[string]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			return false
		}
	}
	return true
}
