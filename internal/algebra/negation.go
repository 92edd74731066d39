package algebra

import (
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/predicate"
)

// negTracker owns the negation side of a pattern operator: the
// per-negation event buffers, their hash indexes and the
// completion-time violation checks.
type negTracker struct {
	steps []model.Step
	arena *kernelArena
	bufs  []negBuf

	scratch []*event.Event // negation condition evaluation buffer
	keep    []*event.Event // survivors of a disordered buffer's expiry
}

// negBuf buffers the events of one negation's type, bounded by
// 2*Horizon so that completion-time checks see every event that can
// fall within a live match's span.
//
// Without a hash index (the negation has no equi-join condition, or
// indexing is disabled) the buffer is the single bucket all, in
// stream order. With one, idx maps the negation's join attribute to
// per-key buckets, and order records the bucket of every buffered
// event in stream order: the buffer's oldest event is always the
// front of order[head], so expiry pops bucket fronts without a map
// lookup. Emptied buckets stay mapped (their key usually comes back);
// empties counts them, and a sweep returns them to the arena only
// when they dominate.
//
// endSorted records whether the buffer holds its events in
// nondecreasing End order — the runtime's tick discipline. While it
// holds, the expired events are a prefix and a probe's scan can stop
// at the first event ending at or before the match's lower bound;
// a disordered buffer expires by a filter pass and probes scan it
// whole. It resets once the buffer drains.
type negBuf struct {
	neg *model.Negation
	// resid is Conds without the equi-join the index decides; probes
	// of an int key evaluate only these.
	resid []*predicate.Compiled

	all     *negBucket
	idx     *keyIndex[*negBucket]
	order   []*negBucket
	head    int
	empties int

	endSorted bool
	lastEnd   event.Time
}

// negBucket is one hash bucket of a negation index (or an unindexed
// negation's whole buffer): a ring over a slice. evs[head:] is the
// live portion in stream order; expiry advances head and compaction
// runs only when the dead prefix dominates. Buckets recycle through
// the arena.
type negBucket struct {
	evs  []*event.Event
	head int
}

// empty reports whether the bucket holds no live events.
func (b *negBucket) empty() bool { return b.head == len(b.evs) }

// pop drops the front event and reports whether the bucket emptied.
func (b *negBucket) pop() bool {
	b.evs[b.head] = nil
	b.head++
	switch {
	case b.head == len(b.evs):
		b.evs = b.evs[:0]
		b.head = 0
		return true
	case b.head > 32 && 2*b.head >= len(b.evs):
		n := copy(b.evs, b.evs[b.head:])
		clear(b.evs[n:])
		b.evs = b.evs[:n]
		b.head = 0
	}
	return false
}

func newNegTracker(spec *PatternSpec, arena *kernelArena) *negTracker {
	nt := &negTracker{
		steps:   spec.Steps,
		arena:   arena,
		bufs:    make([]negBuf, len(spec.Negs)),
		scratch: make([]*event.Event, spec.NumSlots),
	}
	for j := range spec.Negs {
		neg := &spec.Negs[j]
		nb := &nt.bufs[j]
		nb.neg = neg
		nb.endSorted = true
		nb.lastEnd = minTime
		if neg.HashProbe == nil || spec.DisableNegIndex {
			nb.all = arena.getBucket()
			continue
		}
		nb.idx = newKeyIndex[*negBucket]()
		for i, c := range neg.Conds {
			if i != neg.HashCond {
				nb.resid = append(nb.resid, c)
			}
		}
	}
	return nt
}

// observe buffers an event of negation j's type (the caller matched
// the schema) and files it in its bucket.
func (nt *negTracker) observe(j int, e *event.Event) {
	nb := &nt.bufs[j]
	if end := e.Time.End; end < nb.lastEnd {
		nb.endSorted = false
	} else {
		nb.lastEnd = end
	}
	b := nb.all
	if nb.idx != nil {
		k := e.At(nb.neg.HashField)
		b = nb.idx.get(k)
		switch {
		case b == nil:
			b = nt.arena.getBucket()
			nb.idx.set(k, b)
		case b.empty():
			nb.empties--
		}
		nb.order = append(nb.order, b)
	}
	b.evs = append(b.evs, e)
}

// live counts the buffered events.
func (nb *negBuf) live() int {
	if nb.idx == nil {
		return len(nb.all.evs) - nb.all.head
	}
	return len(nb.order) - nb.head
}

// each calls f on the buffered events in stream order.
func (nb *negBuf) each(f func(*event.Event)) {
	if nb.idx == nil {
		for _, e := range nb.all.evs[nb.all.head:] {
			f(e)
		}
		return
	}
	next := make(map[*negBucket]int)
	for _, b := range nb.order[nb.head:] {
		i, ok := next[b]
		if !ok {
			i = b.head
		}
		f(b.evs[i])
		next[b] = i + 1
	}
}

// expire drops every buffered event that ends before negCut.
func (nt *negTracker) expire(negCut event.Time) {
	for j := range nt.bufs {
		nb := &nt.bufs[j]
		switch {
		case !nb.endSorted:
			nt.refilter(j, negCut)
		case nb.idx == nil:
			for b := nb.all; !b.empty() && b.evs[b.head].Time.End < negCut; {
				b.pop()
			}
		default:
			nt.expireIndexed(nb, negCut)
		}
		if nb.live() == 0 {
			nb.endSorted = true
			nb.lastEnd = minTime
		}
	}
}

// expireIndexed pops the expired prefix of an End-sorted indexed
// buffer: each expired event is the front of its bucket. Compaction
// runs only when the dead prefix dominates, keeping amortized cost
// O(expired).
func (nt *negTracker) expireIndexed(nb *negBuf, negCut event.Time) {
	order, h := nb.order, nb.head
	for h < len(order) {
		b := order[h]
		if b.evs[b.head].Time.End >= negCut {
			break
		}
		if b.pop() {
			nb.empties++
		}
		order[h] = nil
		h++
	}
	switch {
	case h == len(order):
		order = order[:0]
		h = 0
	case h > 64 && 2*h >= len(order):
		n := copy(order, order[h:])
		clear(order[n:])
		order = order[:n]
		h = 0
	}
	nb.order, nb.head = order, h
	// Evict mapped-but-empty buckets only once they dominate the map —
	// a hot key's bucket then stays put across live/empty cycles.
	if nb.empties > 64 && 2*nb.empties >= nb.idx.len() {
		nb.idx.evict(func(b *negBucket) bool {
			if !b.empty() {
				return false
			}
			nt.arena.putBucket(b)
			return true
		})
		nb.empties = 0
	}
}

// refilter expires a disordered buffer, whose expired events need not
// form a prefix: it is rebuilt from its surviving events in stream
// order.
func (nt *negTracker) refilter(j int, negCut event.Time) {
	nb := &nt.bufs[j]
	keep := nt.keep[:0]
	nb.each(func(e *event.Event) {
		if e.Time.End >= negCut {
			keep = append(keep, e)
		}
	})
	if len(keep) < nb.live() {
		nt.clearBuf(nb)
		for _, e := range keep {
			nt.observe(j, e)
		}
	}
	clear(keep)
	nt.keep = keep[:0]
}

// clearBuf discards a buffer's events and returns its index buckets
// to the arena.
func (nt *negTracker) clearBuf(nb *negBuf) {
	nb.endSorted = true
	nb.lastEnd = minTime
	if nb.idx == nil {
		b := nb.all
		clear(b.evs)
		b.evs = b.evs[:0]
		b.head = 0
		return
	}
	nb.idx.each(func(_ event.Value, b *negBucket) { nt.arena.putBucket(b) })
	nb.idx.clear()
	clear(nb.order)
	nb.order = nb.order[:0]
	nb.head = 0
	nb.empties = 0
}

// reset discards all buffered events.
func (nt *negTracker) reset() {
	for j := range nt.bufs {
		nt.clearBuf(&nt.bufs[j])
	}
}

// buffered counts the live buffered events across all negations.
func (nt *negTracker) buffered() int {
	total := 0
	for j := range nt.bufs {
		total += nt.bufs[j].live()
	}
	return total
}

// violated reports whether some buffered event of negation j falls
// strictly between the anchoring positive events of binding and
// satisfies all the negation's conditions (paper §4.1, sequence with
// negation). Only non-trailing anchors call it; trailing negations
// are handled through the pending-match deadline discipline.
//
// The probe copies the binding once, then scans the candidate bucket
// newest-first: the violator of a time-ordered stream is usually the
// newest eligible event, and in an End-sorted buffer the scan stops
// at the first event ending at or before the lower bound, since
// every older one does too.
func (nt *negTracker) violated(j int, binding []*event.Event) bool {
	nb := &nt.bufs[j]
	neg := nb.neg
	lo := minTime
	if neg.Anchor > 0 {
		lo = binding[nt.steps[neg.Anchor-1].Slot].Time.End
	}
	hi := binding[nt.steps[neg.Anchor].Slot].Time.Start
	b, conds := nb.all, neg.Conds
	if nb.idx != nil {
		key := neg.HashProbe.Eval(binding)
		if b = nb.idx.get(key); b == nil {
			return false
		}
		if isIntKey(key) {
			// Every event in an int bucket carries this very int, so
			// the equi-join holds; the residual conditions decide.
			conds = nb.resid
		}
	}
	evs := b.evs[b.head:]
	if len(evs) == 0 {
		return false
	}
	s := nt.scratch
	copy(s, binding)
	for i := len(evs) - 1; i >= 0; i-- {
		nv := evs[i]
		if nv.Time.End >= hi {
			continue
		}
		if nv.Time.Start <= lo {
			if nb.endSorted && nv.Time.End <= lo {
				break
			}
			continue
		}
		s[neg.Slot] = nv
		if allHold(conds, s) {
			return true
		}
	}
	return false
}

// condsHold reports whether nv satisfies every condition of neg
// against binding.
func (nt *negTracker) condsHold(neg *model.Negation, binding []*event.Event, nv *event.Event) bool {
	copy(nt.scratch, binding)
	nt.scratch[neg.Slot] = nv
	return allHold(neg.Conds, nt.scratch)
}

func allHold(conds []*predicate.Compiled, binding []*event.Event) bool {
	for _, c := range conds {
		if !c.EvalBool(binding) {
			return false
		}
	}
	return true
}
