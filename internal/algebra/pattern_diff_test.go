package algebra

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
)

// matchTrace renders matches in emission order, including the match
// interval and arrival stamp — the automaton must reproduce the
// reference evaluator's emissions exactly, not merely as a set.
func matchTrace(ms []*Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = fmt.Sprintf("%s@[%d,%d]a%d", matchKey(m), m.Time.Start, m.Time.End, m.Arrival)
	}
	return keys
}

// joinHeavyStream generates a stream biased toward wide join
// frontiers: two key values, dense duplicate timestamps, an A-heavy
// type mix (joins fan out from step 0), and v values stepping in tens
// so the NOT-step arithmetic filter (query 3) fires regularly.
func joinHeavyStream(rng *rand.Rand, reg *event.Registry, n int) []*event.Event {
	types := []string{"A", "A", "B", "C"}
	evs := make([]*event.Event, 0, n)
	ts := event.Time(0)
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			ts += event.Time(rng.Intn(2) + 1)
		}
		s, _ := reg.Lookup(types[rng.Intn(len(types))])
		e := event.MustNew(s, ts,
			event.Int64(int64(rng.Intn(8)*10)), event.Int64(int64(rng.Intn(2))))
		e.Arrival = int64(i + 1)
		evs = append(evs, e)
	}
	return evs
}

// TestKernelDifferentialFuzz drives the shared-run automaton and the
// per-combination reference evaluator (refPattern) over seeded
// join-heavy random streams — runtime-style tick grouping, mid-stream
// Resets, Release after every drain so recycled records are actively
// reused — and requires identical emissions (bindings, order, match
// intervals, arrival stamps) at every drain point, plus exact parity
// on the semantic counters (EventsSeen, MatchesEmitted,
// MatchesNegated; the run-node and filter counters describe kernel
// work, see PatternStats).
func TestKernelDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1318))
	for qi := 0; qi < 6; qi++ {
		for trial := 0; trial < 40; trial++ {
			spec, m := compileQuerySpec(t, patternModels, qi, int64(10+rng.Intn(80)))
			ak, err := NewPattern(spec)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefPattern(spec)
			evs := joinHeavyStream(rng, m.Registry, 80)
			resetAt := -1
			if rng.Intn(3) == 0 {
				resetAt = rng.Intn(len(evs))
			}

			var gotAll, wantAll [][]string
			var scratch []*Match
			i := 0
			for i < len(evs) {
				ts := evs[i].End()
				j := i
				for j < len(evs) && evs[j].End() == ts {
					j++
				}
				if resetAt >= i && resetAt < j {
					ak.Reset()
					ref.reset()
				}
				got := ak.Advance(ts, scratch[:0])
				got = ak.Process(evs[i:j], got)
				gotAll = append(gotAll, matchTrace(got))
				ak.Release(got)
				scratch = got

				want := ref.advance(ts, nil)
				want = ref.process(evs[i:j], want)
				wantAll = append(wantAll, matchTrace(want))
				i = j
			}
			flush := event.Time(1) << 40
			got := ak.Advance(flush, scratch[:0])
			gotAll = append(gotAll, matchTrace(got))
			ak.Release(got)
			wantAll = append(wantAll, matchTrace(ref.advance(flush, nil)))

			if !reflect.DeepEqual(gotAll, wantAll) {
				t.Fatalf("query %d trial %d: kernels disagree\nstream: %v\n automaton: %v\n reference: %v",
					qi, trial, evs, gotAll, wantAll)
			}
			as, rs := ak.Stats(), ref.stats
			if as.EventsSeen != rs.EventsSeen || as.MatchesEmitted != rs.MatchesEmitted ||
				as.MatchesNegated != rs.MatchesNegated {
				t.Fatalf("query %d trial %d: semantic stats diverge\nautomaton: %+v\nreference: %+v",
					qi, trial, as, rs)
			}
			ak.Reset()
			if f := ak.MemoryFootprint(); f.Retained() != 0 {
				t.Fatalf("query %d trial %d: automaton retains state after Reset: %+v", qi, trial, f)
			}
		}
	}
}
