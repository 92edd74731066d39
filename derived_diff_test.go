package caesar

import (
	"fmt"
	"testing"
)

// TestDerivedArenaTollByteIdentical is the derived-event arena's
// acceptance differential (DESIGN.md §3.8): on the toll workload,
// every execution mode must produce byte-identical derived events and
// identical run statistics whether derived events come from the
// worker-owned slab arenas or the GC heap. The workload chains
// derivations (NewCar feeds Toll in-transaction) and runs long enough
// that the watermark recycles derived slabs mid-run, so a premature
// reclamation shows up as a diverging or corrupted rendering. Run
// under -race via scripts/ci.sh this also exercises the reclamation
// bound's cross-goroutine publication.
func TestDerivedArenaTollByteIdentical(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config
	}{
		{"pipelined", Config{Workers: 3}},
		{"shards=1", Config{Shards: 1, Workers: 3}},
		{"shards=2", Config{Shards: 2}},
		{"shards=4", Config{Shards: 4}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			heapCfg := mode.cfg
			heapCfg.DisableDerivedArena = true
			outHeap, stHeap := runToll(t, heapCfg, func(e *Engine, evs []*Event) (*Stats, error) {
				return e.Run(NewSliceSource(evs))
			})
			// Small slabs force continuous recycling under the arena.
			arenaCfg := mode.cfg
			arenaCfg.DerivedChunkEvents = 64
			outArena, stArena := runToll(t, arenaCfg, func(e *Engine, evs []*Event) (*Stats, error) {
				return e.Run(NewSliceSource(evs))
			})
			if outHeap == "" {
				t.Fatal("toll workload derived nothing")
			}
			if outArena != outHeap {
				t.Errorf("arena output diverges from heap output (%d vs %d bytes)",
					len(outArena), len(outHeap))
			}
			if stArena.Events != stHeap.Events || stArena.OutputCount != stHeap.OutputCount ||
				stArena.Transitions != stHeap.Transitions || stArena.Partitions != stHeap.Partitions {
				t.Errorf("stats diverge: %+v vs %+v", stArena, stHeap)
			}
			if s := fmt.Sprint(stArena.PerType); s != fmt.Sprint(stHeap.PerType) {
				t.Errorf("per-type counts diverge: %v vs %v", stArena.PerType, stHeap.PerType)
			}
		})
	}
}
