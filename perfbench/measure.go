package main

import (
	"fmt"
	"os"
	gort "runtime"
	"time"
)

// End-to-end metrics, measured with tracing off. Each is reported on
// every workload; README.md gives the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_eps", "events/s"},
	{"throughput_1shard_eps", "events/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_b_per_event", "B/event"},
}

type metricDef struct{ name, unit string }

// setupsPerRun engines are set up, and not run, before each run of an
// iteration, for setup_s.
const setupsPerRun = 20

// samples collects one value per metric per measured run or
// iteration; a metric reports the median of its samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) medians() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, xs := range s {
		out[k] = median(xs)
	}
	return out
}

// measure makes one untimed main run to warm up, then repeats
// iterations of the workload until the next one would end past the
// time budget (always at least one) and returns each metric's median.
// The warm-up run is checked but not timed: the first run of a
// process starts on a cold heap and cold caches.
func (b *bench) measure(budget time.Duration, traced bool) (map[string]float64, error) {
	start := time.Now()
	if _, err := b.run(b.mainSpec()); err != nil {
		return nil, err
	}
	s := samples{}
	iterations := 0
	for {
		iterations++
		t := time.Now()
		var err error
		if traced {
			err = b.tracedIteration(s)
		} else {
			err = b.iteration(s)
		}
		if err != nil {
			return nil, err
		}
		if elapsed := time.Since(start); elapsed+time.Since(t) > budget {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d iterations in %.1fs, output digest %v\n",
		b.w.name, iterations, time.Since(start).Seconds(), b.want)
	m := s.medians()
	if traced {
		m["trace.overhead_frac"] = median(s["traced_wall"])/median(s["untraced_wall"]) - 1
		delete(m, "traced_wall")
		delete(m, "untraced_wall")
	}
	return m, nil
}

// mainSpec is the run every workload is defined by: Shards at
// GOMAXPROCS, offered at the workload's loop. An open-loop main run
// also samples latency.
func (b *bench) mainSpec() spec {
	open := !b.w.closedLoop
	return spec{shards: gort.GOMAXPROCS(0), paced: open, latency: open}
}

// latencySpec is the main run offered open loop with latency sampled:
// a closed-loop workload's latency run.
func (b *bench) latencySpec() spec {
	return spec{shards: gort.GOMAXPROCS(0), paced: true, latency: true}
}

// iteration makes one untraced measurement of every end-to-end
// metric: the main run gives throughput_eps and alloc_b_per_event,
// the same run at Shards=1 gives throughput_1shard_eps, the latency
// comes from the main run when it is open loop, else from an extra
// latency run, and setup_s from set-ups of the main run's engine
// before each run.
func (b *bench) iteration(s samples) error {
	run := func(sp spec) (*result, error) {
		if err := b.setups(s); err != nil {
			return nil, err
		}
		return b.run(sp)
	}
	sp := b.mainSpec()
	r, err := run(sp)
	if err != nil {
		return err
	}
	if r != nil {
		s.add("throughput_eps", float64(b.in.events)/seconds(r.wallNs))
		s.add("alloc_b_per_event", float64(r.allocB)/float64(b.in.events))
		addLatency(s, r)
	}

	r1, err := run(spec{shards: 1, paced: sp.paced})
	if err != nil {
		return err
	}
	if r1 != nil {
		s.add("throughput_1shard_eps", float64(b.in.events)/seconds(r1.wallNs))
	}

	if !sp.latency {
		rl, err := run(b.latencySpec())
		if err != nil {
			return err
		}
		if rl != nil {
			addLatency(s, rl)
		}
	}
	return nil
}

// setups adds setupsPerRun setup_s samples, each a set-up of the main
// run's engine. One set-up takes well under a millisecond, so the
// median of the few engines a run builds would be left to chance; and
// the host's speed drifts over seconds, so the set-ups are spread
// over the whole run rather than made at once.
func (b *bench) setups(s samples) error {
	sp := b.mainSpec()
	gort.GC() // start from the heap state every run starts from
	for range setupsPerRun {
		d, err := b.setup(sp)
		if err != nil {
			return err
		}
		s.add("setup_s", d.Seconds())
	}
	return nil
}

// addLatency adds the latency percentiles of a run that sampled them.
func addLatency(s samples, r *result) {
	if !r.latency {
		return
	}
	p50, _ := percentile(r.latNs, 0.50)
	p99, _ := percentile(r.latNs, 0.99)
	s.add("latency_p50_ms", millis(p50))
	s.add("latency_p99_ms", millis(p99))
	fmt.Fprintf(os.Stderr, "perfbench: latency run %.3fs: p50 %.2fms p99 %.2fms\n",
		seconds(r.wallNs), millis(p50), millis(p99))
}

// tracedIteration runs the main spec untraced and then traced, for
// the tracing overhead, and records the traced run's per-layer split;
// on a workload that traces durability, durableRuns adds the
// durability layer. The harness metrics come from the untraced run
// that samples latency: the main run when it is open loop, else an
// extra latency run.
func (b *bench) tracedIteration(s samples) error {
	for _, traced := range []bool{false, true} {
		sp := b.mainSpec()
		sp.traced = traced
		if err := b.tracedRun(s, sp); err != nil {
			return err
		}
	}
	if b.w.traceDurable {
		if err := b.durableRuns(s); err != nil {
			return err
		}
	}
	if b.w.closedLoop {
		r, err := b.run(b.latencySpec())
		if err != nil || r == nil {
			return err
		}
		addHarness(s, r)
	}
	return nil
}

func (b *bench) tracedRun(s samples, sp spec) error {
	r, err := b.run(sp)
	if err != nil || r == nil {
		return err
	}
	if !sp.traced {
		s.add("untraced_wall", float64(r.wallNs))
		if sp.latency {
			addHarness(s, r)
		}
		return nil
	}
	s.add("traced_wall", float64(r.wallNs))
	for name, v := range layerMetrics(r) {
		s.add(name, v)
	}
	return nil
}

// durableRuns makes a traced run of the main spec, durable over a
// fresh directory, then a traced resume run over that directory, fed
// the same input, and adds their durability metrics.
func (b *bench) durableRuns(s samples) error {
	dir, err := b.freshDir()
	if err != nil {
		return err
	}
	defer b.removeDir(dir)
	sp := b.mainSpec()
	sp.traced, sp.durableDir = true, dir
	r, err := b.run(sp)
	if err != nil || r == nil {
		return err
	}
	rr, err := b.run(spec{shards: sp.shards, durableDir: dir, resume: true, traced: true})
	if err != nil || rr == nil {
		return err
	}
	for name, v := range durabilityMetrics(r, rr) {
		s.add(name, v)
	}
	return nil
}

func (b *bench) removeDir(dir string) {
	if dir == "" {
		return
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", dir, err)
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
func millis(ns int64) float64  { return float64(ns) / 1e6 }
func micros(ns int64) float64  { return float64(ns) / 1e3 }
