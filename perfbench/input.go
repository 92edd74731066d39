package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/linearroad"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/pam"
)

// workload is one benchmark input: a model, a seeded stream, and how
// the stream is offered to the engine.
type workload struct {
	name        string
	modelSource string
	partitionBy []string
	// sinks are the derived types whose outputs are latency samples:
	// application-facing results whose End() is an input tick.
	// Intermediate types (SegStat, StoppedCar) are excluded; SegStat's
	// window-end timestamp is not an input tick at all.
	sinks []string
	// generate builds the seeded input stream against reg.
	generate func(reg *event.Registry, seed int64) ([]*event.Event, error)
	// period is the open-loop tick interval: the generator offers tick
	// k at start + k·period, and latency is timed from then.
	period time.Duration
	// closedLoop feeds the throughput runs the stream from memory as
	// fast as the engine reads it; latency then comes from a separate
	// open-loop run at period. Otherwise every run is open loop.
	closedLoop bool
	// traceDurable adds to each traced iteration a run of the main
	// spec durable over a fresh DurableDir, with the CLI's fsync per
	// tick and a checkpoint every checkpointEvery ticks, then a resume
	// run over that directory. No end-to-end run is durable: on a
	// shared host's disk they spread past any bound (see README.md).
	traceDurable bool
}

// Sizes fixed by the workload definitions (see README.md).
const (
	tollSegments    = 20
	tollDuration    = 18000 // seconds of road time: 600 report ticks
	tollReplicas    = 4
	pamTicks        = 2000
	pamReplicas     = 4
	tollPeriod      = 4 * time.Millisecond
	checkpointEvery = 100
)

func tollStream(reg *event.Registry, seed int64) ([]*event.Event, error) {
	cfg := linearroad.DefaultConfig()
	cfg.Segments = tollSegments
	cfg.Duration = tollDuration
	cfg.Seed = seed
	return linearroad.Generate(cfg, reg)
}

func pamStream(reg *event.Registry, seed int64) ([]*event.Event, error) {
	cfg := pam.DefaultConfig()
	cfg.Duration = pamTicks * cfg.Every
	cfg.Seed = seed
	return pam.Generate(cfg, reg)
}

var workloads = map[string]workload{
	"toll-replay": {
		name:         "toll-replay",
		modelSource:  linearroad.ModelSource(tollReplicas),
		partitionBy:  linearroad.PartitionBy(),
		sinks:        []string{"TollNotification", "AccidentWarning"},
		generate:     tollStream,
		period:       tollPeriod,
		closedLoop:   true,
		traceDurable: true,
	},
	"pam-paced": {
		name:        "pam-paced",
		modelSource: pam.ModelSource(pamReplicas),
		partitionBy: pam.PartitionBy(),
		sinks:       []string{"Alert", "Summary"},
		generate:    pamStream,
		period:      time.Millisecond,
	},
}

// input is a workload's stream rendered to the engine's line format
// before any timing starts.
type input struct {
	text   []byte  // the whole stream
	ticks  []tick  // per-tick slices of text, in stream order
	index  tickMap // tick time -> position in ticks
	events int
}

type tick struct {
	at     event.Time
	events int
	lines  []byte
}

// tailEvents counts the events of the stream's last n ticks.
func (in *input) tailEvents(n int) int {
	total := 0
	for k := len(in.ticks) - n; k < len(in.ticks); k++ {
		if k >= 0 {
			total += in.ticks[k].events
		}
	}
	return total
}

// tickMap maps an input tick's time to its position in the stream,
// which fixes when the tick was due.
type tickMap map[event.Time]int

// dueNs returns the wall time (unix ns) at which the tick ending at t
// was due in an open loop that offers tick k at start + k·period.
func (m tickMap) dueNs(t event.Time, start int64, period time.Duration) (int64, bool) {
	k, ok := m[t]
	if !ok {
		return 0, false
	}
	return start + int64(k)*int64(period), true
}

// buildInput generates the seeded stream against a compile of the
// workload's model and renders it tick by tick.
func buildInput(w workload, seed int64) (*input, error) {
	m, err := model.CompileSource(w.modelSource)
	if err != nil {
		return nil, fmt.Errorf("compile %s model: %w", w.name, err)
	}
	evs, err := w.generate(m.Registry, seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s stream: %w", w.name, err)
	}
	return renderInput(evs)
}

func renderInput(evs []*event.Event) (*input, error) {
	var buf bytes.Buffer
	wr := event.NewWriter(&buf)
	in := &input{index: tickMap{}, events: len(evs)}
	var starts []int
	for i, e := range evs {
		if i == 0 || e.End() != evs[i-1].End() {
			if err := wr.Flush(); err != nil {
				return nil, err
			}
			in.index[e.End()] = len(in.ticks)
			in.ticks = append(in.ticks, tick{at: e.End()})
			starts = append(starts, buf.Len())
		}
		if err := wr.Write(e); err != nil {
			return nil, err
		}
		in.ticks[len(in.ticks)-1].events++
	}
	if err := wr.Flush(); err != nil {
		return nil, err
	}
	in.text = buf.Bytes()
	for k := range in.ticks {
		end := len(in.text)
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		in.ticks[k].lines = in.text[starts[k]:end]
	}
	return in, nil
}
