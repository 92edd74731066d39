package algebra

import (
	"github.com/caesar-cep/caesar/internal/event"
)

// minTime is the automaton's "no time yet" sentinel; it matches the
// open lower bound the negation interval check uses.
const minTime = event.Time(-1 << 62)

// autoKernel runs a compiled Program over a shared-run DAG
// (DESIGN.md §3.5). Where a per-combination evaluator materializes
// one partial record per open step combination, the automaton keeps
// ONE run node per (state, consumed event): the node back-points to
// its whole predecessor set — a contiguous range of a predecessor
// bucket when the transition has no per-pair residual filters, an
// explicit list otherwise. Update work per event is therefore independent of how
// many combinations the event participates in; full matches are
// enumerated lazily from the DAG only when a completion event
// arrives, walking back-pointers oldest-first so emission order is
// identical to the per-combination reference evaluator's
// (refPattern, pattern_ref_test.go).
type autoKernel struct {
	prog  *Program
	arena *kernelArena
	nt    *negTracker

	// states[s] (0 <= s <= n-2) holds the runs that have bound steps
	// 0..s and await step s+1; nil for single-step patterns.
	states []*runState

	pending []*pendingMatch
	// pendSorted tracks whether pending is nondecreasing in lastEnd;
	// trailing-negation kills then scan only the eligible prefix
	// (lastEnd < violator start) instead of the whole list.
	pendSorted bool

	// curCut is the monotone maximum of (now - Horizon) over all
	// Advance calls since the last Reset: the exact expiry boundary
	// the enumeration applies per path at the leaf.
	curCut event.Time

	// scratch is the enumeration binding: positive slots are written
	// as the walk descends, then copied into an arena region on emit.
	scratch []*event.Event
	// emitEnd is the completing event's End during an enumeration.
	emitEnd event.Time

	statsVal    PatternStats
	predEntries int
}

// runState is one automaton state's run storage. When the outgoing
// transition extracted a hash key, runs are bucketed by the key
// evaluated over their own event (the predecessor side of the
// equi-join); otherwise a single bucket holds every run in arrival
// order.
type runState struct {
	keyed   bool
	all     *runBucket
	buckets *keyIndex[*runBucket]
	empties int
	nodes   int

	// endSorted records whether runs entered this state in
	// nondecreasing End order (the transaction discipline's normal
	// case). While it holds, the eligible predecessor set of a new
	// event is a prefix found by binary search; when a disordered
	// batch breaks it, ranges fall back to whole-bucket spans and the
	// enumeration's per-node time check keeps results exact.
	endSorted bool
	lastEnd   event.Time
}

// runBucket is a ring over a slice of run nodes, with the same
// head/compaction discipline as the negation buffers. base is the
// absolute sequence number of nodes[0]; predecessor ranges store
// absolute sequences so head advances and compaction never
// invalidate them. gen increments when the bucket is recycled, so a
// stale range (its runs all expired) resolves to nothing rather than
// to another bucket's runs.
type runBucket struct {
	nodes    []*runNode
	head     int
	base     int64
	gen      uint32
	chainMax event.Time // running max of inserted runs' maxFS
}

func (b *runBucket) empty() bool { return b.head == len(b.nodes) }

// runNode is one shared run: the event consumed by the step it
// bound, plus its predecessor set in one of two forms. maxFS is an
// upper bound on the maximum first-start over every path reaching
// the node; the watermark trim uses it to reclaim whole subtrees
// while the enumeration's leaf check enforces the horizon exactly.
type runNode struct {
	ev  *event.Event
	gen uint32

	// Range form (transitions without pair filters): predecessors
	// are pb's runs with sequence in [predLo, predHi).
	pb             *runBucket
	pbGen          uint32
	predLo, predHi int64
	// List form (pair-filtered transitions): the survivors, with
	// generation stamps so expired-and-recycled runs are skipped.
	preds []predRef

	maxFS event.Time
}

type predRef struct {
	n   *runNode
	gen uint32
}

func newAutoKernel(prog *Program) *autoKernel {
	spec := &prog.Spec
	arena := newKernelArena(spec.NumSlots)
	k := &autoKernel{
		prog:       prog,
		arena:      arena,
		nt:         newNegTracker(spec, arena),
		scratch:    make([]*event.Event, spec.NumSlots),
		pendSorted: true,
		curCut:     minTime,
	}
	if n := len(spec.Steps); n > 1 {
		k.states = make([]*runState, n-1)
		for s := range k.states {
			st := &runState{endSorted: true, lastEnd: minTime}
			if prog.trans[s+1].keyed {
				st.keyed = true
				st.buckets = newKeyIndex[*runBucket]()
			} else {
				st.all = arena.getRunBucket()
			}
			k.states[s] = st
		}
	}
	return k
}

func (k *autoKernel) stats() PatternStats { return k.statsVal }

func (k *autoKernel) arenaChunks() int { return k.arena.chunks }

func (k *autoKernel) footprint() Footprint {
	nodes := 0
	for _, st := range k.states {
		nodes += st.nodes
	}
	return Footprint{
		NegBuffered: k.nt.buffered(),
		Pending:     len(k.pending),
		RunNodes:    nodes,
		PredEntries: k.predEntries,
	}
}

func (k *autoKernel) release(ms []*Match) {
	for _, m := range ms {
		k.arena.putMatch(m)
	}
}

// advance trims expired runs by the horizon watermark, prunes the
// negation buffers and flushes matured pending matches.
func (k *autoKernel) advance(now event.Time, out []*Match) []*Match {
	if cut := now - event.Time(k.prog.Spec.Horizon); cut > k.curCut {
		k.curCut = cut
	}
	for _, st := range k.states {
		k.trimState(st, k.curCut)
	}
	k.nt.expire(now - 2*event.Time(k.prog.Spec.Horizon))
	if len(k.pending) > 0 {
		kept := k.pending[:0]
		for _, pm := range k.pending {
			switch {
			case pm.killed:
				k.arena.putMatch(pm.m)
				k.arena.putPending(pm)
			case pm.deadline < now:
				out = append(out, pm.m)
				k.statsVal.MatchesEmitted++
				k.arena.putPending(pm)
			default:
				kept = append(kept, pm)
			}
		}
		k.pending = kept
		if len(kept) == 0 {
			k.pendSorted = true
		}
	}
	return out
}

// trimState pops every bucket's dead prefix: runs whose maxFS bound
// fell behind the watermark can reach no live match. maxFS is
// nondecreasing within a bucket for states past the first (it
// inherits the predecessor bucket's running max), so the prefix pop
// is exact there; for state 0 it is conservative and the enumeration
// leaf check picks up the slack.
func (k *autoKernel) trimState(st *runState, cut event.Time) {
	if !st.keyed {
		k.trimBucket(st, st.all, cut)
		return
	}
	st.buckets.each(func(_ event.Value, b *runBucket) { k.trimBucket(st, b, cut) })
	// Evict mapped-but-empty buckets only once they dominate the map;
	// the generation stamp keeps ranges over evicted buckets inert.
	if st.empties > 64 && 2*st.empties >= st.buckets.len() {
		st.buckets.evict(func(b *runBucket) bool {
			if !b.empty() {
				return false
			}
			k.arena.putRunBucket(b)
			return true
		})
		st.empties = 0
	}
}

func (k *autoKernel) trimBucket(st *runState, b *runBucket, cut event.Time) {
	popped := false
	for b.head < len(b.nodes) && b.nodes[b.head].maxFS < cut {
		nd := b.nodes[b.head]
		b.nodes[b.head] = nil
		b.head++
		k.freeNode(nd)
		st.nodes--
		k.statsVal.PartialsExpired++
		popped = true
	}
	switch {
	case b.empty() && len(b.nodes) > 0:
		// Normalize an emptied bucket: the next run starts a fresh
		// slice, and base advances so stale ranges clamp to nothing.
		b.base += int64(len(b.nodes))
		b.nodes = b.nodes[:0]
		b.head = 0
		if popped && st.keyed {
			st.empties++
		}
	case b.head > 64 && 2*b.head >= len(b.nodes):
		n := copy(b.nodes, b.nodes[b.head:])
		for i := n; i < len(b.nodes); i++ {
			b.nodes[i] = nil
		}
		b.nodes = b.nodes[:n]
		b.base += int64(b.head)
		b.head = 0
	}
}

// freeNode recycles a run node and its predecessor set.
func (k *autoKernel) freeNode(nd *runNode) {
	if nd.preds != nil {
		k.predEntries -= len(nd.preds)
		k.arena.putPredList(nd.preds)
		nd.preds = nil
	} else if nd.pb != nil {
		k.predEntries--
	}
	k.arena.putNode(nd)
}

func (k *autoKernel) reset() {
	for _, st := range k.states {
		if st.keyed {
			st.buckets.each(func(_ event.Value, b *runBucket) { k.resetBucket(b) })
			st.empties = st.buckets.len()
		} else {
			k.resetBucket(st.all)
		}
		st.nodes = 0
		st.endSorted = true
		st.lastEnd = minTime
	}
	k.nt.reset()
	for _, pm := range k.pending {
		k.arena.putMatch(pm.m)
		k.arena.putPending(pm)
	}
	k.pending = k.pending[:0]
	k.pendSorted = true
	k.curCut = minTime
}

func (k *autoKernel) resetBucket(b *runBucket) {
	for i := b.head; i < len(b.nodes); i++ {
		k.freeNode(b.nodes[i])
		b.nodes[i] = nil
	}
	b.base += int64(len(b.nodes))
	b.nodes = b.nodes[:0]
	b.head = 0
	b.chainMax = minTime
}

func (k *autoKernel) process(batch []*event.Event, out []*Match) []*Match {
	for _, e := range batch {
		out = k.processEvent(e, out)
	}
	return out
}

func (k *autoKernel) processEvent(e *event.Event, out []*Match) []*Match {
	k.statsVal.EventsSeen++
	spec := &k.prog.Spec
	n := len(spec.Steps)
	// Negation bookkeeping first: an event can serve both as a step
	// and as a negation of another variable's type.
	for j := range spec.Negs {
		ng := &spec.Negs[j]
		if ng.Schema != e.Schema {
			continue
		}
		k.nt.observe(j, e)
		if ng.Anchor == n {
			k.killPending(j, e)
		}
	}
	for i := range spec.Steps {
		if spec.Steps[i].Schema != e.Schema {
			continue
		}
		switch {
		case n == 1:
			out = k.completeSingle(e, out)
		case i == 0:
			k.startRun(e)
		case i == n-1:
			out = k.complete(e, out)
		default:
			k.extend(i, e)
		}
	}
	return out
}

// startRun creates a state-0 run (the automaton's initial
// transition) after the start filters pass.
func (k *autoKernel) startRun(e *event.Event) {
	k.scratch[k.prog.slotOf[0]] = e
	for _, fi := range k.prog.filterAt[0] {
		if !k.prog.Spec.Filters[fi].EvalBool(k.scratch) {
			k.statsVal.FilteredOut++
			return
		}
	}
	k.statsVal.PartialsCreated++
	nd := k.arena.getNode()
	nd.ev = e
	nd.maxFS = e.Time.Start
	k.insert(0, nd)
}

// insert files a run into its state, bucketing by the outgoing
// transition's predecessor-side key. The caller has the run's event
// in scratch at its own slot.
func (k *autoKernel) insert(s int, nd *runNode) {
	st := k.states[s]
	var b *runBucket
	if st.keyed {
		tr := &k.prog.trans[s+1]
		key := tr.keyPrev.Eval(k.scratch)
		if key.Kind != tr.keyKind {
			// The compiled equality requires matching runtime kinds,
			// so no future event can join with this run: drop it.
			k.freeNode(nd)
			return
		}
		kk := normKey(key)
		b = st.buckets.get(kk)
		switch {
		case b == nil:
			b = k.arena.getRunBucket()
			st.buckets.set(kk, b)
		case b.empty() && st.empties > 0:
			// Reviving a trimmed-empty bucket (trim normalized it).
			st.empties--
		}
	} else {
		b = st.all
	}
	if end := nd.ev.Time.End; end < st.lastEnd {
		st.endSorted = false
	} else {
		st.lastEnd = end
	}
	b.nodes = append(b.nodes, nd)
	b.chainMax = maxT(b.chainMax, nd.maxFS)
	st.nodes++
}

// extend consumes a mid-sequence step: probe the predecessor state,
// resolve the eligible run set, and file ONE new run that shares it.
func (k *autoKernel) extend(i int, e *event.Event) {
	tr := &k.prog.trans[i]
	k.scratch[tr.slot] = e
	for _, fi := range tr.unary {
		if !k.prog.Spec.Filters[fi].EvalBool(k.scratch) {
			k.statsVal.FilteredOut++
			return
		}
	}
	b := k.lookup(i-1, tr)
	if b == nil || b.empty() {
		return
	}
	st := k.states[i-1]
	lo := b.base + int64(b.head)
	hi := b.base + int64(len(b.nodes))
	if st.endSorted {
		hi = b.searchEnd(e.Time.Start)
	}
	if hi <= lo {
		return
	}
	var nd *runNode
	if len(tr.pair) > 0 {
		// Residual pair predicates: verify each eligible predecessor
		// now and share the survivor list.
		preds := k.arena.getPredList()
		for q := lo; q < hi; q++ {
			pn := b.nodes[q-b.base]
			if pn.ev.Time.End >= e.Time.Start {
				continue
			}
			k.scratch[tr.prevSlot] = pn.ev
			ok := true
			for _, fi := range tr.pair {
				if !k.prog.Spec.Filters[fi].EvalBool(k.scratch) {
					k.statsVal.FilteredOut++
					ok = false
					break
				}
			}
			if ok {
				preds = append(preds, predRef{n: pn, gen: pn.gen})
			}
		}
		if len(preds) == 0 {
			k.arena.putPredList(preds)
			return
		}
		nd = k.arena.getNode()
		nd.preds = preds
		k.predEntries += len(preds)
	} else {
		// Constant-time extension: the whole eligible set as a range.
		nd = k.arena.getNode()
		nd.pb = b
		nd.pbGen = b.gen
		nd.predLo = lo
		nd.predHi = hi
		k.predEntries++
	}
	nd.ev = e
	nd.maxFS = b.chainMax
	k.statsVal.PartialsCreated++
	k.insert(i, nd)
}

// complete consumes the final step's event: instead of materializing
// anything, it enumerates full matches backward through the DAG.
func (k *autoKernel) complete(e *event.Event, out []*Match) []*Match {
	n := len(k.prog.Spec.Steps)
	tr := &k.prog.trans[n-1]
	k.scratch[tr.slot] = e
	for _, fi := range tr.unary {
		if !k.prog.Spec.Filters[fi].EvalBool(k.scratch) {
			k.statsVal.FilteredOut++
			return out
		}
	}
	b := k.lookup(n-2, tr)
	if b == nil || b.empty() {
		return out
	}
	st := k.states[n-2]
	lo := b.base + int64(b.head)
	hi := b.base + int64(len(b.nodes))
	if st.endSorted {
		hi = b.searchEnd(e.Time.Start)
	}
	if hi <= lo {
		return out
	}
	k.emitEnd = e.Time.End
	return k.walkRange(n-2, b, b.gen, lo, hi, e.Time.Start, e.Arrival, out)
}

// completeSingle handles single-step patterns: the start filters are
// the whole automaton.
func (k *autoKernel) completeSingle(e *event.Event, out []*Match) []*Match {
	k.scratch[k.prog.slotOf[0]] = e
	for _, fi := range k.prog.filterAt[0] {
		if !k.prog.Spec.Filters[fi].EvalBool(k.scratch) {
			k.statsVal.FilteredOut++
			return out
		}
	}
	k.statsVal.PartialsCreated++
	k.emitEnd = e.Time.End
	return k.emit(e.Arrival, out)
}

// lookup resolves the predecessor bucket for a keyed or unkeyed
// transition; scratch holds the current event at tr.slot.
func (k *autoKernel) lookup(s int, tr *transition) *runBucket {
	st := k.states[s]
	if !st.keyed {
		return st.all
	}
	key := tr.keyCur.Eval(k.scratch)
	if key.Kind != tr.keyKind {
		return nil
	}
	return st.buckets.get(normKey(key))
}

// walkRange enumerates the runs of b with sequence in [lo, hi),
// oldest first — the same order the reference evaluator's partial
// lists preserve. gen guards against the bucket having been recycled.
func (k *autoKernel) walkRange(s int, b *runBucket, gen uint32, lo, hi int64, succStart event.Time, arrival int64, out []*Match) []*Match {
	if b.gen != gen {
		return out
	}
	if l := b.base + int64(b.head); lo < l {
		lo = l
	}
	if h := b.base + int64(len(b.nodes)); hi > h {
		hi = h
	}
	for q := lo; q < hi; q++ {
		out = k.walkNode(s, b.nodes[q-b.base], succStart, arrival, out)
	}
	return out
}

// walkNode binds step s's event from nd and recurses into nd's
// predecessor set; at the leaf the horizon, negation and emission
// logic run against the fully bound scratch.
func (k *autoKernel) walkNode(s int, nd *runNode, succStart event.Time, arrival int64, out []*Match) []*Match {
	if nd.ev.Time.End >= succStart {
		// Strict sequencing (§4.1): e_s must end before e_{s+1}
		// starts. Ranges over disordered or partially trimmed buckets
		// may span ineligible runs, so the check is per node.
		return out
	}
	if nd.maxFS < k.curCut {
		return out // every path through this run expired
	}
	k.scratch[k.prog.slotOf[s]] = nd.ev
	for _, fi := range k.prog.enumAt[s] {
		if !k.prog.Spec.Filters[fi].EvalBool(k.scratch) {
			k.statsVal.FilteredOut++
			return out
		}
	}
	arrival = maxI64(arrival, nd.ev.Arrival)
	if s == 0 {
		if nd.ev.Time.Start < k.curCut {
			return out // exact horizon check: this path expired
		}
		return k.emit(arrival, out)
	}
	if nd.preds != nil {
		for _, p := range nd.preds {
			if p.n.gen != p.gen {
				continue // predecessor expired and was recycled
			}
			out = k.walkNode(s-1, p.n, nd.ev.Time.Start, arrival, out)
		}
		return out
	}
	return k.walkRange(s-1, nd.pb, nd.pbGen, nd.predLo, nd.predHi, nd.ev.Time.Start, arrival, out)
}

// emit finalizes one enumerated binding: anchored negations are
// checked against the shared negation buffers, then the scratch is
// copied into an arena region and emitted (or parked behind the
// trailing-negation deadline).
func (k *autoKernel) emit(arrival int64, out []*Match) []*Match {
	spec := &k.prog.Spec
	n := len(spec.Steps)
	for j := range spec.Negs {
		if spec.Negs[j].Anchor == n {
			continue
		}
		if k.nt.violated(j, k.scratch) {
			k.statsVal.MatchesNegated++
			return out
		}
	}
	binding := k.arena.getBinding()
	copy(binding, k.scratch)
	m := k.arena.getMatch()
	m.Binding = binding
	m.Time = event.Interval{Start: k.scratch[k.prog.slotOf[0]].Time.Start, End: k.emitEnd}
	m.Arrival = arrival
	if k.prog.hasTrailing {
		pm := k.arena.getPending()
		pm.m = m
		pm.lastEnd = k.emitEnd
		pm.deadline = k.emitEnd + event.Time(spec.Horizon)
		if ln := len(k.pending); ln > 0 && k.pending[ln-1].lastEnd > pm.lastEnd {
			k.pendSorted = false
		}
		k.pending = append(k.pending, pm)
		return out
	}
	k.statsVal.MatchesEmitted++
	return append(out, m)
}

// killPending invalidates pending matches whose trailing negation is
// violated by the newly arrived event nv. Only matches that end
// strictly before nv starts are eligible; while pending is sorted by
// lastEnd those form a prefix, so the scan stops at the first
// ineligible record instead of walking the whole list — the
// timestamp-interval side of the shared-run negation design.
func (k *autoKernel) killPending(j int, nv *event.Event) {
	neg := &k.prog.Spec.Negs[j]
	for _, pm := range k.pending {
		if nv.Time.Start <= pm.lastEnd {
			if k.pendSorted {
				break
			}
			continue
		}
		if pm.killed {
			continue
		}
		if k.nt.condsHold(neg, pm.m.Binding, nv) {
			pm.killed = true
			k.statsVal.MatchesNegated++
		}
	}
}

// searchEnd binary-searches the first live run with End >= start and
// returns its absolute sequence (End is nondecreasing in a sorted
// state, so [head, found) is exactly the strict-predecessor set).
func (b *runBucket) searchEnd(start event.Time) int64 {
	lo, hi := b.head, len(b.nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.nodes[mid].ev.Time.End < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return b.base + int64(lo)
}

// normKey canonicalizes a hash key Value so struct equality in the
// bucket map matches predicate equality: constructors zero the
// unused payload fields.
func normKey(v event.Value) event.Value {
	switch v.Kind {
	case event.KindInt:
		return event.Int64(v.Int)
	case event.KindString:
		return event.String(v.Str)
	case event.KindBool:
		return event.Bool(v.Int != 0)
	default:
		return v
	}
}
