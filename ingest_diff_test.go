package caesar

import (
	"bytes"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func tollGenConfig() LinearRoadConfig {
	gen := LinearRoadDefaults()
	gen.Segments = 4
	// Long enough that the watermark (which trails by 2·horizon, the
	// default horizon being 300) passes whole slabs mid-run.
	gen.Duration = 3600
	return gen
}

// runToll executes the Linear Road toll workload: it builds an engine
// with cfg, generates the benchmark stream against that engine's
// registry (schemas are matched by identity, so every run generates
// its own), executes run, and returns the Writer-rendered derived
// events (sorted, newline-joined — worker interleaving permutes
// emission order) plus the Stats.
func runToll(t *testing.T, cfg Config, run func(*Engine, []*Event) (*Stats, error)) (string, *Stats) {
	t.Helper()
	cfg.PartitionBy = LinearRoadPartitionBy()
	cfg.CollectOutputs = true
	eng, err := NewFromSource(LinearRoadModel(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := GenerateLinearRoad(tollGenConfig(), eng.Registry())
	if err != nil {
		t.Fatal(err)
	}
	st, err := run(eng, evs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewEventWriter(&buf)
	lines := make([]string, 0, len(st.Outputs))
	for _, e := range st.Outputs {
		buf.Reset()
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, buf.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, ""), st
}

// encodeWire renders events in the wire format.
func encodeWire(t *testing.T, evs []*Event) []byte {
	t.Helper()
	var wire bytes.Buffer
	w := NewEventWriter(&wire)
	for _, e := range evs {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// perEventSource yields events one at a time through the per-event
// Source protocol only, so Engine.Run must adapt it with the Batcher.
type perEventSource struct{ src *SliceSource }

func (p perEventSource) Next() *Event { return p.src.Next() }

// TestIngestPathsByteIdentical is the ingest acceptance test: a
// per-event source adapted through the Batcher, the pipelined batch
// path over GC-managed events, the wire decoder's arena path and the
// arena-backed generator must all reproduce the pinned toll outputs
// and run statistics.
func TestIngestPathsByteIdentical(t *testing.T) {
	outEvent, stEvent := runToll(t, Config{Workers: 3}, func(e *Engine, evs []*Event) (*Stats, error) {
		return e.Run(perEventSource{NewSliceSource(evs)})
	})
	outBatch, stBatch := runToll(t, Config{Workers: 3}, func(e *Engine, evs []*Event) (*Stats, error) {
		return e.Run(NewSliceSource(evs))
	})
	outWire, stWire := runToll(t, Config{Workers: 3, ReadAhead: 2}, func(e *Engine, evs []*Event) (*Stats, error) {
		return e.Run(NewEventReader(bytes.NewReader(encodeWire(t, evs)), e.Registry()))
	})
	outStream, stStream := runToll(t, Config{Workers: 3}, func(e *Engine, evs []*Event) (*Stats, error) {
		s, err := NewLinearRoadStream(tollGenConfig(), e.Registry())
		if err != nil {
			t.Fatal(err)
		}
		return e.RunBatches(s)
	})

	checkTollDigest(t, "per-event", outEvent, stEvent)
	checkTollDigest(t, "batch", outBatch, stBatch)
	checkTollDigest(t, "wire", outWire, stWire)
	checkTollDigest(t, "stream", outStream, stStream)
	// Every path must actually have pipelined (batches counted), and
	// the wire reader's slabs must be reclaimed behind the watermark.
	if stEvent.Batches == 0 || stBatch.Batches == 0 || stWire.Batches == 0 || stStream.Batches == 0 {
		t.Errorf("pipelined runs reported no batches: %d/%d/%d/%d",
			stEvent.Batches, stBatch.Batches, stWire.Batches, stStream.Batches)
	}
	// Mid-run reclamation needs worker progress concurrent with decode:
	// the watermark follows the workers' completed marks, and on a
	// single P the buffered hand-off legitimately defers execution
	// until decode quiesces, so reclaim activity is only a meaningful
	// assertion with ≥2 scheduler threads (the correctness of the
	// reclaim bound itself is covered by the pinned digests above and
	// the arena unit tests).
	if runtime.GOMAXPROCS(0) > 1 && stWire.ReclaimedChunks == 0 {
		t.Error("wire ingest never reclaimed an arena slab")
	}
}
