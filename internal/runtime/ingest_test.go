package runtime

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// arenaTickSource is a deterministic arena-backed batch source over
// the traffic model: one congestion trigger tick, then one position
// report per segment per tick, every report a fresh vehicle (so each
// derives NewCar and Toll). Events are carved from a small-slab arena
// to force reclamation mid-run.
type arenaTickSource struct {
	arena *event.Arena
	pr    *event.Schema
	trig  *event.Schema
	segs  int
	ticks int
	i     int
}

func newArenaTickSource(t testing.TB, m *model.Model, segs, ticks int) *arenaTickSource {
	t.Helper()
	pr, ok1 := m.Registry.Lookup("PositionReport")
	trig, ok2 := m.Registry.Lookup("Trigger")
	if !ok1 || !ok2 {
		t.Fatal("traffic schemas missing")
	}
	return &arenaTickSource{
		arena: event.NewArena(64),
		pr:    pr, trig: trig,
		segs: segs, ticks: ticks,
	}
}

func (s *arenaTickSource) NextBatch(b *event.Batch) bool {
	b.Epoch = uint64(s.i)
	b.Events = b.Events[:0]
	if s.i > s.ticks {
		return false
	}
	t := event.Time(30 * (s.i + 1))
	for seg := 0; seg < s.segs; seg++ {
		if s.i == 0 {
			e := s.arena.Alloc(s.trig, event.Point(t), 2)
			e.Values[0] = event.Int64(int64(seg))
			e.Values[1] = event.Int64(1) // congestion on
			b.Events = append(b.Events, e)
			continue
		}
		e := s.arena.Alloc(s.pr, event.Point(t), 4)
		e.Values[0] = event.Int64(int64(s.i*100 + seg)) // fresh vid
		e.Values[1] = event.Int64(int64(seg))
		e.Values[2] = event.Int64(0)
		e.Values[3] = event.Int64(int64(t))
		b.Events = append(b.Events, e)
	}
	s.i++
	return s.i <= s.ticks
}

func (s *arenaTickSource) ReclaimBefore(t event.Time) int { return s.arena.ReclaimBefore(t) }

func ingestEngine(t testing.TB, workers, readAhead int) (*Engine, *model.Model) {
	t.Helper()
	eng, m := buildEngine(t, trafficSrc, ContextAware, false, workers)
	eng.cfg.ReadAhead = readAhead
	return eng, m
}

// TestPipelinedIngestMatchesSync is the runtime-level differential:
// the arena-backed batch path (decode goroutine, read-ahead ring,
// slab reclamation) must produce exactly the outputs of the same
// stream pulled synchronously one event at a time through the
// per-event Source protocol, which Run adapts with event.NewBatcher
// and which never reclaims. Run under -race this also exercises the
// ring hand-off and the watermark's cross-goroutine publication.
func TestPipelinedIngestMatchesSync(t *testing.T) {
	const segs, ticks = 4, 400

	sync, m1 := ingestEngine(t, 3, 0)
	stSync, err := sync.Run(event.PerEvent(newArenaTickSource(t, m1, segs, ticks)))
	if err != nil {
		t.Fatal(err)
	}
	piped, m2 := ingestEngine(t, 3, 2)
	stPiped, err := piped.RunBatches(newArenaTickSource(t, m2, segs, ticks))
	if err != nil {
		t.Fatal(err)
	}

	if stSync.Events != stPiped.Events || stSync.OutputCount != stPiped.OutputCount ||
		stSync.Transitions != stPiped.Transitions || stSync.Partitions != stPiped.Partitions {
		t.Fatalf("stats diverge:\nsync:  %+v\npiped: %+v", stSync, stPiped)
	}
	a, b := sortedRenderings(stSync), sortedRenderings(stPiped)
	if len(a) == 0 {
		t.Fatal("no outputs at all")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("outputs diverge between sync and pipelined ingest")
	}

	// The pipelined run must have recycled slabs behind the watermark
	// (400 ticks span 12 000 time units against a ~600-unit slack).
	if stPiped.Batches == 0 {
		t.Error("pipelined run reported no batches")
	}
	if stPiped.ReclaimedChunks == 0 {
		t.Error("watermark never reclaimed a slab")
	}
	if stSync.ReclaimedChunks != 0 {
		t.Error("per-event path reclaimed slabs it should not touch")
	}
}

// splitTickSource violates the batch protocol: a tick's events are
// spread across two batches.
type splitTickSource struct {
	src  *arenaTickSource
	half []*event.Event
	i    int
}

func (s *splitTickSource) NextBatch(b *event.Batch) bool {
	s.i++
	if len(s.half) > 0 {
		b.Events = append(b.Events[:0], s.half...)
		s.half = nil
		return true
	}
	more := s.src.NextBatch(b)
	if s.i == 3 && len(b.Events) > 1 {
		mid := len(b.Events) / 2
		s.half = append(s.half, b.Events[mid:]...)
		b.Events = b.Events[:mid]
	}
	return more
}

func TestBatchSplitTickRejected(t *testing.T) {
	eng, m := ingestEngine(t, 2, 0)
	src := &splitTickSource{src: newArenaTickSource(t, m, 4, 20)}
	if _, err := eng.RunBatches(src); err == nil || !strings.Contains(err.Error(), "split tick") {
		t.Errorf("split tick accepted: %v", err)
	}
}

// backwardsSource yields a batch whose timestamps regress.
type backwardsSource struct {
	src *arenaTickSource
	i   int
}

func (s *backwardsSource) NextBatch(b *event.Batch) bool {
	s.i++
	more := s.src.NextBatch(b)
	if s.i == 4 {
		for _, e := range b.Events {
			e.Time = event.Point(1) // far in the past
		}
	}
	return more
}

func TestBatchOutOfOrderRejected(t *testing.T) {
	eng, m := ingestEngine(t, 2, 0)
	src := &backwardsSource{src: newArenaTickSource(t, m, 4, 20)}
	if _, err := eng.RunBatches(src); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Errorf("disorder accepted: %v", err)
	}
}

// routedDigest pins the outputs of the 3-segment, 60-tick
// arenaTickSource stream: the SHA-256 of its 360 sorted renderings.
// Computed on the synchronous per-event loop before that loop was
// retired; every ingest route must still reproduce it.
const routedDigest = "8f2a65cf493d31af40a06e84f208e1c1b1e718ef0df9c7399e65a98e958d7fb7"

// TestRunRoutesBatchSources checks Engine.Run's protocol sniffing: a
// plain Source goes through the Batcher adapter and a BatchSource
// feeds the pipeline directly, both reproducing the pinned outputs.
func TestRunRoutesBatchSources(t *testing.T) {
	for _, mode := range []string{"batcher", "batch"} {
		eng, m := ingestEngine(t, 2, 0)
		var (
			st  *Stats
			err error
		)
		if mode == "batch" {
			st, err = eng.Run(batchOnly{newArenaTickSource(t, m, 3, 60)})
		} else {
			st, err = eng.Run(event.PerEvent(newArenaTickSource(t, m, 3, 60)))
		}
		if err != nil {
			t.Fatal(err)
		}
		got := sortedRenderings(st)
		if d := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(got, "\n")))); d != routedDigest {
			t.Errorf("%s: %d outputs with digest %s, want %s", mode, len(got), d, routedDigest)
		}
	}
}

// batchOnly satisfies Source only formally: Next panics, proving Run
// prefers the BatchSource protocol when a source offers both.
type batchOnly struct{ src *arenaTickSource }

func (b batchOnly) NextBatch(out *event.Batch) bool { return b.src.NextBatch(out) }
func (b batchOnly) Next() *event.Event              { panic("batch-capable source fed through the per-event path") }
