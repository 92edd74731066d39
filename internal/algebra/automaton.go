package algebra

import (
	"fmt"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/predicate"
)

// Program is a PatternSpec compiled into a chained-event automaton
// (DESIGN.md §3.5). State s of the automaton accepts sequences that
// have bound steps 0..s; consuming an event of step s+1's type moves
// a run from state s to s+1. Compilation classifies every WHERE
// conjunct by the transition where its variables become bound:
//
//   - start filters (filterAt[0]) gate run creation at state 0;
//   - a unary filter of transition i reads only step i's event and is
//     evaluated once per consumed event, before any predecessor work;
//   - a key filter is an equi-join between an expression over step
//     i-1 alone and one over step i alone: state i-1 is then hash
//     bucketed by the predecessor-side key, and consuming an event
//     probes one bucket instead of scanning the state;
//   - a pair filter reads exactly steps i-1 and i and is evaluated
//     per (predecessor, event) pair at extension time;
//   - a deep filter reads some step older than i-1; it cannot be
//     evaluated against a shared predecessor set, so it is deferred
//     to match enumeration and scheduled at the earliest (deepest)
//     step it reads (enumAt).
//
// The final transition never materializes a run node, so its pair
// filters are scheduled as enumeration filters too.
//
// A Program is immutable after compilation and shared by every
// operator instance of its query plan.
type Program struct {
	Spec PatternSpec

	// filterAt[i] lists the indices of Spec.Filters that become fully
	// bound once step i is bound — the eager evaluation schedule.
	filterAt [][]int

	// trans[i] drives the consumption of step i's events (1 <= i <
	// len(Steps)); trans[0] is unused (step 0 starts runs).
	trans []transition

	// enumAt[s] lists the filter indices evaluated when the backward
	// match enumeration binds step s's event (all steps > s are bound
	// at that point).
	enumAt [][]int

	// slotOf[i] is Steps[i].Slot.
	slotOf []int

	hasTrailing bool
}

// transition is the compiled consumption of one positive step.
type transition struct {
	slot     int // binding slot of this step
	prevSlot int // binding slot of the predecessor step

	unary []int // filter indices over {slot} only
	pair  []int // filter indices over exactly {prevSlot, slot}

	// keyed marks an extracted equi-join: keyPrev reads only the
	// predecessor step, keyCur only this step, and both sides have
	// the same hashable static kind.
	keyed   bool
	keyPrev *predicate.Compiled
	keyCur  *predicate.Compiled
	keyKind event.Kind
}

// NumSteps returns the number of positive steps.
func (pr *Program) NumSteps() int { return len(pr.Spec.Steps) }

// hashableKind reports whether map-key equality on event.Value agrees
// with predicate equality for values of static kind k. Int, string
// and bool attributes always hold exactly their declared kind
// (event.New enforces it; predicate arithmetic preserves it), and the
// compiled comparison for those kinds requires matching runtime kinds
// — so bucketing by the raw Value is exact. Float is excluded: float
// fields may hold int values, and cross-kind numeric equality is not
// a hashable relation.
func hashableKind(k event.Kind) bool {
	return k == event.KindInt || k == event.KindString || k == event.KindBool
}

// CompileProgram validates a spec and compiles it into an automaton
// program.
func CompileProgram(spec PatternSpec) (*Program, error) {
	if len(spec.Steps) == 0 {
		return nil, fmt.Errorf("algebra: pattern needs at least one positive step")
	}
	if spec.Horizon <= 0 {
		return nil, fmt.Errorf("algebra: pattern horizon must be positive, got %d", spec.Horizon)
	}
	n := len(spec.Steps)
	pr := &Program{
		Spec:     spec,
		filterAt: make([][]int, n),
		trans:    make([]transition, n),
		enumAt:   make([][]int, n),
		slotOf:   make([]int, n),
	}
	for i, st := range spec.Steps {
		pr.slotOf[i] = st.Slot
	}
	for _, neg := range spec.Negs {
		if neg.Anchor == n {
			pr.hasTrailing = true
		}
	}
	// Eager filter schedule: a filter runs at the first step where
	// its variable set is fully bound.
	bound := predicate.VarSet(0)
	scheduled := make([]bool, len(spec.Filters))
	for i, st := range spec.Steps {
		bound = bound.With(st.Slot)
		for fi, f := range spec.Filters {
			if !scheduled[fi] && f.Vars().SubsetOf(bound) {
				pr.filterAt[i] = append(pr.filterAt[i], fi)
				scheduled[fi] = true
			}
		}
	}
	for fi, ok := range scheduled {
		if !ok {
			return nil, fmt.Errorf("algebra: filter %s references unbound variables", spec.Filters[fi])
		}
	}
	// Classify each transition's filters. Step 0 has no transition:
	// filterAt[0] gates run creation directly.
	for i := 1; i < n; i++ {
		tr := &pr.trans[i]
		tr.slot = pr.slotOf[i]
		tr.prevSlot = pr.slotOf[i-1]
		curOnly := predicate.VarSet(0).With(tr.slot)
		pairMask := curOnly.With(tr.prevSlot)
		final := i == n-1
		for _, fi := range pr.filterAt[i] {
			f := spec.Filters[fi]
			if f.Vars().SubsetOf(curOnly) {
				tr.unary = append(tr.unary, fi)
				continue
			}
			if !tr.keyed && pr.extractKey(tr, f) {
				continue
			}
			if f.Vars().SubsetOf(pairMask) {
				if final {
					// Completion builds no node; verify the pair
					// during enumeration of the last predecessor.
					pr.enumAt[i-1] = append(pr.enumAt[i-1], fi)
				} else {
					tr.pair = append(tr.pair, fi)
				}
				continue
			}
			pr.enumAt[pr.minStep(f)] = append(pr.enumAt[pr.minStep(f)], fi)
		}
	}
	return pr, nil
}

// extractKey tries to use filter f as transition tr's hash key: a
// top-level equality whose sides read exactly the predecessor step
// and exactly the current step, with matching hashable kinds.
func (pr *Program) extractKey(tr *transition, f *predicate.Compiled) bool {
	l, r, ok := f.EquiJoin()
	if !ok {
		return false
	}
	prevOnly := predicate.VarSet(0).With(tr.prevSlot)
	curOnly := predicate.VarSet(0).With(tr.slot)
	switch {
	case l.Vars() == prevOnly && r.Vars() == curOnly:
		// oriented as written
	case l.Vars() == curOnly && r.Vars() == prevOnly:
		l, r = r, l
	default:
		return false
	}
	if l.Kind() != r.Kind() || !hashableKind(l.Kind()) {
		return false
	}
	tr.keyed = true
	tr.keyPrev = l
	tr.keyCur = r
	tr.keyKind = l.Kind()
	return true
}

// minStep returns the earliest step index whose slot filter f reads.
func (pr *Program) minStep(f *predicate.Compiled) int {
	for i, s := range pr.slotOf {
		if f.Vars().Has(s) {
			return i
		}
	}
	// Unreachable for scheduled filters: every filter reads at least
	// one positive slot or is constant (scheduled at step 0, which
	// never classifies through here).
	return 0
}
