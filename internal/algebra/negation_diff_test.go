package algebra

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
)

// negationModels exercises the negation probe's shapes: a toll-shaped
// leading NOT (an exact int key plus an arithmetic residual), a
// mid-anchored NOT bounded on both sides, string, float and bool
// index keys, and a negation with no equi-join (always scanned).
const negationModels = `
EVENT P(vid int, sec int, name string, w float, f bool)
EVENT Q(vid int, sec int, name string, w float, f bool)
EVENT Out(v int)

CONTEXT main DEFAULT

DERIVE Out(p2.vid)
PATTERN SEQ(NOT P p1, P p2)
WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid

DERIVE Out(b.vid)
PATTERN SEQ(P a, NOT Q x, P b)
WHERE a.vid = b.vid AND x.vid = b.vid AND x.sec > a.sec

DERIVE Out(p.vid)
PATTERN SEQ(NOT Q x, P p)
WHERE x.name = p.name AND x.sec + 10 > p.sec

DERIVE Out(b.vid)
PATTERN SEQ(P a, NOT Q x, P b)
WHERE x.w = a.w AND a.vid = b.vid

DERIVE Out(p.vid)
PATTERN SEQ(NOT Q x, P p)
WHERE x.f = p.f AND x.vid = p.vid

DERIVE Out(b.vid)
PATTERN SEQ(P a, NOT P x, P b)
WHERE a.vid = b.vid AND x.sec > a.sec + 5
`

// negationStream generates a stream with deep same-key history (three
// vids, so every key's bucket holds many entries), sec tracking the
// timestamp so the toll query's "+30" residual fires, duplicate-End
// runs, and — when disorder is set — occasional events whose End
// steps back or whose interval spans several ticks. A tenth of the
// events carry a null (invalid) value in one key attribute.
func negationStream(rng *rand.Rand, reg *event.Registry, n int, disorder bool) []*event.Event {
	p, _ := reg.Lookup("P")
	q, _ := reg.Lookup("Q")
	names := []string{"a", "b", "c"}
	ws := []float64{0.5, 1.5, 0, -0.0}
	evs := make([]*event.Event, 0, n)
	ts := event.Time(0)
	for i := 0; i < n; i++ {
		ts += event.Time(5 * rng.Intn(3))
		iv := event.Point(ts)
		if disorder && rng.Intn(8) == 0 {
			switch rng.Intn(2) {
			case 0:
				iv = event.Point(ts - event.Time(5+5*rng.Intn(4)))
			default:
				iv = event.Interval{Start: ts - event.Time(1+rng.Intn(40)), End: ts}
			}
		}
		s := p
		if rng.Intn(2) == 0 {
			s = q
		}
		sec := int64(iv.End)
		if rng.Intn(5) == 0 {
			sec += int64(5 * (rng.Intn(5) - 2))
		}
		vals := []event.Value{
			event.Int64(int64(rng.Intn(3))),
			event.Int64(sec),
			event.String(names[rng.Intn(len(names))]),
			event.Float64(ws[rng.Intn(len(ws))]),
			event.Bool(rng.Intn(2) == 0),
		}
		if rng.Intn(10) == 0 {
			k := []int{0, 2, 3, 4}[rng.Intn(4)]
			vals[k] = event.Value{}
		}
		evs = append(evs, &event.Event{Schema: s, Time: iv, Arrival: int64(i + 1), Values: vals})
	}
	return evs
}

// TestNegationDifferential drives the kernel's negation probe against
// the independent refPattern oracle (which rebuilds its negation index
// from scratch on every prune and scans every candidate oldest-first)
// over seeded streams, with the negation index on and off, in-order
// and disordered, and with a snapshot save/load into a fresh operator
// at a random tick boundary. Every drain must emit the same matches.
func TestNegationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4107))
	for qi := 0; qi < 6; qi++ {
		for _, noIdx := range []bool{false, true} {
			for _, disorder := range []bool{false, true} {
				name := fmt.Sprintf("q%d/noIndex=%v/disorder=%v", qi, noIdx, disorder)
				for trial := 0; trial < 25; trial++ {
					spec, m := compileQuerySpec(t, negationModels, qi, int64(20+rng.Intn(130)))
					spec.DisableNegIndex = noIdx
					if qi < 5 && !noIdx && spec.Negs[0].HashProbe == nil {
						t.Fatalf("%s: negation is not indexed", name)
					}
					kernel, err := NewPattern(spec)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRefPattern(spec)
					evs := negationStream(rng, m.Registry, 150, disorder)
					snapAt := -1
					if rng.Intn(2) == 0 {
						snapAt = rng.Intn(len(evs))
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
						if snapAt >= i && snapAt < j {
							blob := savePattern(t, kernel)
							kernel = NewPatternFromProgram(kernel.Program())
							loadPattern(t, kernel, blob, m.Registry)
							scratch = nil
						}
						got := kernel.Advance(ts, scratch[:0])
						got = kernel.Process(evs[i:j], got)
						gotAll = append(gotAll, matchSet(got))
						kernel.Release(got)
						scratch = got

						want := ref.advance(ts, nil)
						want = ref.process(evs[i:j], want)
						wantAll = append(wantAll, matchSet(want))
						i = j
					}
					flush := event.Time(1) << 40
					got := kernel.Advance(flush, scratch[:0])
					gotAll = append(gotAll, matchSet(got))
					kernel.Release(got)
					wantAll = append(wantAll, matchSet(ref.advance(flush, nil)))

					if !reflect.DeepEqual(gotAll, wantAll) {
						t.Fatalf("%s trial %d (snapshot at %d): kernel and reference disagree\nstream: %v\n got: %v\nwant: %v",
							name, trial, snapAt, evs, gotAll, wantAll)
					}
				}
			}
		}
	}
}
