// Command perfbench is the repository's end-to-end benchmark. It
// drives the CAESAR engine through its public calls only —
// model.CompileSource, core.NewEngine, Engine.Run over an
// event.Reader, and OnOutput — on two workloads (toll-replay and
// pam-paced; see README.md), checks every run's derived
// events, and prints one JSON result line:
//
//	perfbench --workload toll-replay --seed 1 --seconds 55 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured
// with tracing off; with --trace 1 it holds the per-layer split of a
// traced run, from the engine's stage tracer, telemetry registry and
// Stats plus the benchmark's own timers around its calls into each
// layer. A stamp line describing the host and build precedes it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", referenceSeed, "input generator seed")
	secs := fs.Int("seconds", 55, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 reports the traced per-layer split, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *secs < 1:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	rep, err := measureWorkload(w, *seed, time.Duration(*secs)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"stamp": newStamp(w.name, *seed, *secs, *trace)}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func measureWorkload(w workload, seed int64, budget time.Duration, traced bool) (*report, error) {
	t := time.Now()
	in, err := buildInput(w, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d events in %d ticks rendered in %.1fs\n",
		w.name, in.events, len(in.ticks), time.Since(t).Seconds())
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	b := &bench{w: w, in: in, tmpDir: tmp, lagBuf: make([]int64, len(in.ticks))}
	if d, ok := referenceDigests[w.name]; ok && seed == referenceSeed {
		b.want = &d
	}
	// Sized above every workload's sink count, so that the first run's
	// samples do not grow the buffer: growth would count in its
	// alloc_b_per_event.
	b.latBuf = make([]int64, 0, min(8*in.events, 1<<20))

	values, err := b.measure(budget, traced)
	if err != nil {
		return nil, err
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed run: %s\n", f)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := &report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return rep, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
