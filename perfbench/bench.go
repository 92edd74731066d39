package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	gort "runtime"
	"time"

	"github.com/caesar-cep/caesar/internal/core"
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/runtime"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// spec selects one measured Run of a workload.
type spec struct {
	shards int
	// paced offers the stream open-loop at the workload's period;
	// otherwise it is read from memory as fast as possible.
	paced bool
	// durableDir, when set, makes the run durable over that directory.
	durableDir string
	traced     bool
	// latency samples sink-event latency; only paced runs have due
	// times to time it from.
	latency bool
	// resume marks a run over a durable directory a previous run
	// left: its outputs are WAL replays, not the stream's outputs.
	resume bool
}

// result is one measured Run: a fresh engine, built and run once.
type result struct {
	spec
	compileNs, planNs, engineNs int64
	wallNs                      int64 // Run
	startupNs                   int64 // Run start to its first read of live input
	allocB                      uint64
	stats                       *runtime.Stats
	digest                      digest
	latNs                       []int64 // sorted sink latencies; valid until the next run
	lagNs                       []int64 // generator lag per tick (paced runs)
	src                         *source
	reg                         *telemetry.Registry
	stages                      *telemetry.StageTracer
}

// bench runs one workload's engines over one rendered input.
type bench struct {
	w      workload
	in     *input
	tmpDir string
	// want is the digest every non-resume run must produce: pinned
	// for the reference seed, else taken from the first run.
	want   *digest
	latBuf []int64
	lagBuf []int64

	attempted, failed int
	failures          []string
}

// errStopped ends the open-loop generator when Run returns early.
var errStopped = errors.New("perfbench: engine stopped reading")

// run builds a fresh engine, as the CLI and every server session do,
// runs it once, and checks the outcome. A failed run is booked and
// returned as nil with no error; err reports benchmark faults only.
func (b *bench) run(sp spec) (*result, error) {
	w, in := b.w, b.in
	if sp.latency && !sp.paced {
		return nil, errors.New("latency is sampled on paced runs only")
	}
	gort.GC()
	r := &result{spec: sp}

	t0 := time.Now()
	m, err := model.CompileSource(w.modelSource)
	r.compileNs = int64(time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("compile %s model: %w", w.name, err)
	}
	sk, err := newSink(m.Registry, w.sinks, b.latBuf)
	if err != nil {
		return nil, err
	}
	cfg := b.engineConfig(sp, sk.onOutput)
	if sp.traced {
		t := time.Now()
		if _, err := plan.Build(m, plan.Optimized()); err != nil {
			return nil, fmt.Errorf("plan %s model: %w", w.name, err)
		}
		r.planNs = int64(time.Since(t))
		r.reg = telemetry.NewRegistry()
		r.stages = telemetry.NewStageTracer(1, 64)
		cfg.Telemetry, cfg.Stages = r.reg, r.stages
	}
	t1 := time.Now()
	eng, err := core.NewEngine(m, cfg)
	r.engineNs = int64(time.Since(t1))
	if err != nil {
		return nil, fmt.Errorf("configure %s engine: %w", w.name, err)
	}

	var (
		rd   io.Reader = bytes.NewReader(in.text)
		pr   *io.PipeReader
		pw   *io.PipeWriter
		done chan struct{}
	)
	if sp.paced {
		pr, pw = io.Pipe()
		rd = pr
	}
	r.src = newSource(rd, m.Registry, sp.traced)

	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	start := time.Now()
	if sp.latency {
		startNs := start.UnixNano()
		sk.due = func(t event.Time) (int64, bool) { return in.index.dueNs(t, startNs, w.period) }
	}
	if sp.paced {
		r.lagNs = b.lagBuf[:len(in.ticks)]
		done = make(chan struct{})
		go func() {
			defer close(done)
			pace(pw, in.ticks, start, w.period, r.lagNs)
		}()
	}
	st, runErr := eng.Run(r.src)
	r.wallNs = int64(time.Since(start))
	gort.ReadMemStats(&after)
	if sp.paced {
		pr.CloseWithError(errStopped)
		<-done
	}
	r.allocB = after.TotalAlloc - before.TotalAlloc
	r.startupNs = r.src.firstCallNs - start.UnixNano()
	r.stats = st
	r.digest = sk.digest()

	lat, latErr := sk.latencies()
	switch {
	case runErr != nil:
		b.fail(r, fmt.Sprintf("run: %v", runErr))
		return nil, nil
	case latErr != nil:
		return nil, latErr
	}
	b.latBuf = lat // keep the grown buffer for later runs
	if sp.latency {
		if len(lat) == 0 {
			return nil, fmt.Errorf("%s: run produced no sink events to time", w.name)
		}
		r.latNs = lat
	}
	if !b.check(r) {
		return nil, nil
	}
	return r, nil
}

// engineConfig is the engine configuration of run sp, with its
// outputs sent to onOutput.
func (b *bench) engineConfig(sp spec, onOutput func(*event.Event)) core.Config {
	cfg := core.Config{
		PartitionBy: b.w.partitionBy,
		Shards:      sp.shards,
		OnOutput:    onOutput,
	}
	if sp.durableDir != "" {
		cfg.DurableDir = sp.durableDir
		cfg.CheckpointEvery = checkpointEvery
		cfg.WALSync = 1 // fsync every tick, the CLI default
	}
	return cfg
}

// setup compiles the workload's model and configures an engine for sp
// without running it, as the CLI and every server session do before
// their run, and returns how long both took.
func (b *bench) setup(sp spec) (time.Duration, error) {
	t := time.Now()
	m, err := model.CompileSource(b.w.modelSource)
	if err != nil {
		return 0, fmt.Errorf("compile %s model: %w", b.w.name, err)
	}
	if _, err := core.NewEngine(m, b.engineConfig(sp, func(*event.Event) {})); err != nil {
		return 0, fmt.Errorf("configure %s engine: %w", b.w.name, err)
	}
	return time.Since(t), nil
}

// check applies the output-correctness gate to a finished run and
// books its events. A run fails when the engine consumed a different
// number of events than were generated, or when its derived-event
// digest differs from the reference. A resume run consumes only the
// ticks it replays from the WAL tail (the live ticks are all
// duplicates) and re-emits only their outputs, so its event count is
// checked against that tail and its digest is not compared.
func (b *bench) check(r *result) bool {
	st := r.stats
	want := b.in.events
	if r.resume {
		want = b.in.tailEvents(int(st.ReplayedTicks))
	}
	if st.Events != uint64(want) {
		b.fail(r, fmt.Sprintf("engine consumed %d events, want %d", st.Events, want))
		return false
	}
	if !r.resume {
		if b.want == nil {
			d := r.digest
			b.want = &d
		} else if r.digest != *b.want {
			b.fail(r, fmt.Sprintf("output digest %v, want %v", r.digest, *b.want))
			return false
		}
	}
	b.attempted += b.in.events
	return true
}

func (b *bench) fail(r *result, why string) {
	b.attempted += b.in.events
	b.failed += b.in.events
	b.failures = append(b.failures, fmt.Sprintf("%s shards=%d paced=%t durable=%t: %s",
		b.w.name, r.shards, r.paced, r.durableDir != "", why))
}

// freshDir makes an empty durable-state directory under the
// benchmark's scratch directory.
func (b *bench) freshDir() (string, error) {
	return os.MkdirTemp(b.tmpDir, "durable-")
}
