package algebra

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
)

// refPattern is the differential-testing reference for the pattern
// operator: a deliberately naive per-combination evaluator with
// per-extension heap-allocated bindings and *partial records, full
// negation-index rebuilds in Advance and fresh maps in Reset. The
// shared-run automaton must emit exactly the same matches, in the
// same order, under any interleaving of Advance, Process, Reset and
// Release, and agree on the semantic counters kept in stats
// (EventsSeen, MatchesEmitted, MatchesNegated).
type refPattern struct {
	spec     PatternSpec
	filterAt [][]int
	partials [][]*refPartial
	negBuf   [][]*event.Event
	negIdx   []map[event.Value][]*event.Event
	pending  []*refPending
	scratch  []*event.Event
	stats    PatternStats
}

type refPartial struct {
	binding    []*event.Event
	firstStart event.Time
	lastEnd    event.Time
	arrival    int64
}

type refPending struct {
	m        *Match
	lastEnd  event.Time
	deadline event.Time
	killed   bool
}

func newRefPattern(spec PatternSpec) *refPattern {
	p := &refPattern{spec: spec}
	// Reuse the arena kernel's eager-filter schedule rather than
	// duplicating it; the schedule logic is not under test here.
	kp, err := NewPattern(spec)
	if err != nil {
		panic(err)
	}
	p.filterAt = kp.prog.filterAt
	p.partials = make([][]*refPartial, len(spec.Steps))
	p.negBuf = make([][]*event.Event, len(spec.Negs))
	p.negIdx = make([]map[event.Value][]*event.Event, len(spec.Negs))
	for j := range spec.Negs {
		if spec.Negs[j].HashProbe != nil && !spec.DisableNegIndex {
			p.negIdx[j] = map[event.Value][]*event.Event{}
		}
	}
	p.scratch = make([]*event.Event, spec.NumSlots)
	return p
}

func (p *refPattern) reset() {
	for i := range p.partials {
		p.partials[i] = nil
	}
	for j := range p.negBuf {
		p.negBuf[j] = nil
		if p.negIdx[j] != nil {
			p.negIdx[j] = map[event.Value][]*event.Event{}
		}
	}
	p.pending = nil
}

func (p *refPattern) advance(now event.Time, out []*Match) []*Match {
	cut := now - event.Time(p.spec.Horizon)
	for i := 1; i < len(p.partials); i++ {
		ps := p.partials[i]
		kept := ps[:0]
		for _, pa := range ps {
			if pa.firstStart >= cut {
				kept = append(kept, pa)
			}
		}
		p.partials[i] = kept
	}
	negCut := now - 2*event.Time(p.spec.Horizon)
	for j := range p.negBuf {
		nb := p.negBuf[j]
		kept := nb[:0]
		for _, e := range nb {
			if e.End() >= negCut {
				kept = append(kept, e)
			}
		}
		pruned := len(kept) != len(nb)
		p.negBuf[j] = kept
		if pruned && p.negIdx[j] != nil {
			idx := make(map[event.Value][]*event.Event, len(kept))
			field := p.spec.Negs[j].HashField
			for _, e := range kept {
				idx[e.At(field)] = append(idx[e.At(field)], e)
			}
			p.negIdx[j] = idx
		}
	}
	if len(p.pending) > 0 {
		kept := p.pending[:0]
		for _, pm := range p.pending {
			switch {
			case pm.killed:
			case pm.deadline < now:
				out = append(out, pm.m)
				p.stats.MatchesEmitted++
			default:
				kept = append(kept, pm)
			}
		}
		p.pending = kept
	}
	return out
}

func (p *refPattern) process(batch []*event.Event, out []*Match) []*Match {
	for _, e := range batch {
		out = p.processEvent(e, out)
	}
	return out
}

func (p *refPattern) processEvent(e *event.Event, out []*Match) []*Match {
	p.stats.EventsSeen++
	for j := range p.spec.Negs {
		n := &p.spec.Negs[j]
		if n.Schema != e.Schema {
			continue
		}
		p.negBuf[j] = append(p.negBuf[j], e)
		if idx := p.negIdx[j]; idx != nil {
			idx[e.At(n.HashField)] = append(idx[e.At(n.HashField)], e)
		}
		if n.Anchor == len(p.spec.Steps) {
			p.killPending(n, e)
		}
	}
	for i := range p.spec.Steps {
		if p.spec.Steps[i].Schema != e.Schema {
			continue
		}
		if i == 0 {
			binding := make([]*event.Event, p.spec.NumSlots)
			binding[p.spec.Steps[0].Slot] = e
			if !p.runFilters(0, binding) {
				continue
			}
			pa := &refPartial{binding: binding, firstStart: e.Time.Start, lastEnd: e.Time.End, arrival: e.Arrival}
			if len(p.spec.Steps) == 1 {
				out = p.complete(pa, out)
			} else {
				p.partials[1] = append(p.partials[1], pa)
			}
		} else {
			out = p.extend(i, e, out)
		}
	}
	return out
}

func (p *refPattern) extend(i int, e *event.Event, out []*Match) []*Match {
	slot := p.spec.Steps[i].Slot
	last := i == len(p.spec.Steps)-1
	ps := p.partials[i]
	for _, pa := range ps {
		if pa.lastEnd >= e.Time.Start {
			continue
		}
		binding := append([]*event.Event(nil), pa.binding...)
		binding[slot] = e
		if !p.runFilters(i, binding) {
			continue
		}
		ext := &refPartial{binding: binding, firstStart: pa.firstStart, lastEnd: e.Time.End, arrival: maxI64(pa.arrival, e.Arrival)}
		if last {
			out = p.complete(ext, out)
		} else {
			p.partials[i+1] = append(p.partials[i+1], ext)
		}
	}
	return out
}

func (p *refPattern) runFilters(step int, binding []*event.Event) bool {
	for _, fi := range p.filterAt[step] {
		if !p.spec.Filters[fi].EvalBool(binding) {
			return false
		}
	}
	return true
}

func (p *refPattern) complete(pa *refPartial, out []*Match) []*Match {
	n := len(p.spec.Steps)
	for j := range p.spec.Negs {
		neg := &p.spec.Negs[j]
		if neg.Anchor == n {
			continue
		}
		if p.violated(neg, j, pa.binding) {
			p.stats.MatchesNegated++
			return out
		}
	}
	m := &Match{Binding: pa.binding, Time: event.Interval{Start: pa.firstStart, End: pa.lastEnd}, Arrival: pa.arrival}
	for j := range p.spec.Negs {
		if p.spec.Negs[j].Anchor == n {
			p.pending = append(p.pending, &refPending{m: m, lastEnd: pa.lastEnd, deadline: pa.lastEnd + event.Time(p.spec.Horizon)})
			return out
		}
	}
	p.stats.MatchesEmitted++
	return append(out, m)
}

func (p *refPattern) violated(neg *model.Negation, j int, binding []*event.Event) bool {
	var lo event.Time = -1 << 62
	if neg.Anchor > 0 {
		lo = binding[p.spec.Steps[neg.Anchor-1].Slot].Time.End
	}
	hi := binding[p.spec.Steps[neg.Anchor].Slot].Time.Start
	candidates := p.negBuf[j]
	if idx := p.negIdx[j]; idx != nil {
		candidates = idx[neg.HashProbe.Eval(binding)]
	}
	for _, nv := range candidates {
		if nv.Time.Start <= lo || nv.Time.End >= hi {
			continue
		}
		if p.condsHold(neg, binding, nv) {
			return true
		}
	}
	return false
}

func (p *refPattern) condsHold(neg *model.Negation, binding []*event.Event, nv *event.Event) bool {
	copy(p.scratch, binding)
	p.scratch[neg.Slot] = nv
	for _, c := range neg.Conds {
		if !c.EvalBool(p.scratch) {
			return false
		}
	}
	return true
}

func (p *refPattern) killPending(neg *model.Negation, nv *event.Event) {
	for _, pm := range p.pending {
		if pm.killed || nv.Time.Start <= pm.lastEnd {
			continue
		}
		if p.condsHold(neg, pm.m.Binding, nv) {
			pm.killed = true
			p.stats.MatchesNegated++
		}
	}
}

// TestPatternKernelEquivalence drives the arena kernel and the
// pre-arena reference over identical randomized streams — random tick
// grouping, mid-stream Resets, and Release after every drain (so
// recycled bindings and matches are actively reused while the run
// continues) — and requires identical emissions at every drain point.
func TestPatternKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for qi := 0; qi < 6; qi++ {
		for trial := 0; trial < 40; trial++ {
			spec, m := compileQuerySpec(t, patternModels, qi, int64(10+rng.Intn(60)))
			kernel, err := NewPattern(spec)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefPattern(spec)
			evs := randomStream(rng, m.Registry, 60)
			resetAt := -1
			if rng.Intn(2) == 0 {
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
					kernel.Reset()
					ref.reset()
				}
				got := kernel.Advance(ts, scratch[:0])
				got = kernel.Process(evs[i:j], got)
				gotAll = append(gotAll, matchSet(got))
				// Render before releasing: recycling invalidates the
				// bindings, exactly as the runtime's usage does.
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
				t.Fatalf("query %d trial %d: kernels disagree\nstream: %v\n got: %v\nwant: %v",
					qi, trial, evs, gotAll, wantAll)
			}
		}
	}
}

// TestPatternReleaseRecycles pins the arena contract: released
// matches and their bindings are reused by later work instead of
// allocating fresh ones.
func TestPatternReleaseRecycles(t *testing.T) {
	spec, m := compileQuerySpec(t, patternModels, 1, 1000) // SEQ(A a, B b)
	p, err := NewPattern(spec)
	if err != nil {
		t.Fatal(err)
	}
	a1 := mev(t, m.Registry, "A", 1, 1, 7)
	b1 := mev(t, m.Registry, "B", 2, 2, 7)
	out := p.Process([]*event.Event{a1, b1}, nil)
	if len(out) != 1 {
		t.Fatalf("matches = %d, want 1", len(out))
	}
	m1 := out[0]
	p.Release(out)
	if m1.Binding != nil {
		t.Error("released match keeps its binding")
	}

	// A fresh key: the first A's partial is still live and must not
	// join with this pair.
	a2 := mev(t, m.Registry, "A", 3, 3, 8)
	b2 := mev(t, m.Registry, "B", 4, 4, 8)
	out2 := p.Process([]*event.Event{a2, b2}, nil)
	if len(out2) != 1 {
		t.Fatalf("matches = %d, want 1", len(out2))
	}
	if out2[0] != m1 {
		t.Error("Match record was not recycled")
	}
	if out2[0].Binding[0] != a2 || out2[0].Binding[1] != b2 {
		t.Errorf("recycled binding has wrong contents: %v", out2[0])
	}
}
