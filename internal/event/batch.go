package event

// Batch is one tick-aligned slice of an event stream: events in
// non-decreasing occurrence-end order, never splitting a tick (all
// events sharing an occurrence end time land in the same batch).
// That alignment is the batch protocol's one semantic obligation —
// the engine runs exactly one stream transaction per partition per
// tick, so a tick split across batches would execute twice and
// context transitions would fire mid-tick.
type Batch struct {
	// Epoch increases monotonically across batches from one source.
	Epoch uint64
	// Events is the batch payload, ordered by occurrence end time.
	// The pointers may reference arena slabs owned by the source; they
	// stay valid until the consumer's watermark passes them and the
	// source reclaims (see Reclaimer).
	Events []*Event
	// DecodeNs and ReadyNs are stage-tracing stamps set by the ingest
	// decode goroutine when tracing is enabled (zero otherwise): how
	// long the batch took to decode, and the wall-clock instant (unix
	// nanoseconds) it entered the read-ahead ring. The dispatch side
	// derives the batch's queue wait from ReadyNs.
	DecodeNs int64
	ReadyNs  int64
}

// BatchSource yields tick-aligned event batches. NextBatch fills b
// (reusing b.Events' capacity) and reports whether the stream has
// more; a false return with len(b.Events) > 0 delivers a final
// partial batch. Sources that can fail expose Err() error, checked
// after exhaustion, like per-event Sources.
type BatchSource interface {
	NextBatch(b *Batch) bool
}

// Reclaimer is implemented by batch sources whose events live in a
// recyclable arena. ReclaimBefore(t) tells the source that no event
// ending before t is referenced anymore; it returns how many slabs
// were recycled. Sources without an arena simply don't implement it.
type Reclaimer interface {
	ReclaimBefore(t Time) int
}

// batcherTarget is the Batcher's soft batch size: it closes a batch
// at the first tick boundary at or past this many events.
const batcherTarget = 512

// Batcher adapts a per-event Source to the batch protocol. It
// carries one peeked event across calls so it can close batches on
// tick boundaries without consuming into the next tick.
type Batcher struct {
	src   Source
	peek  *Event
	done  bool
	epoch uint64
}

// NewBatcher wraps src as a tick-aligned BatchSource.
func NewBatcher(src Source) *Batcher { return &Batcher{src: src} }

// NextBatch implements BatchSource.
func (b *Batcher) NextBatch(out *Batch) bool {
	out.Epoch = b.epoch
	out.Events = out.Events[:0]
	if b.done && b.peek == nil {
		return false
	}
	b.epoch++
	for {
		e := b.peek
		b.peek = nil
		if e == nil {
			if e = b.src.Next(); e == nil {
				b.done = true
				return false
			}
		}
		out.Events = append(out.Events, e)
		if len(out.Events) >= batcherTarget {
			// Consume the rest of the current tick, then stop.
			ts := e.End()
			for {
				n := b.src.Next()
				if n == nil {
					b.done = true
					return false
				}
				if n.End() != ts {
					b.peek = n
					return true
				}
				out.Events = append(out.Events, n)
			}
		}
	}
}

// Err proxies the wrapped source's Err, if any.
func (b *Batcher) Err() error {
	if es, ok := b.src.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// perEvent adapts a BatchSource back to a per-event Source, for
// callers that want the one-event-at-a-time protocol (tests that
// drive a batch source through Engine.Run's Batcher route).
type perEvent struct {
	bs   BatchSource
	b    Batch
	pos  int
	done bool
}

// PerEvent wraps bs as a per-event Source. Arena-backed sources keep
// their events alive only until reclamation, so callers must not
// retain yielded pointers past their horizon.
func PerEvent(bs BatchSource) Source { return &perEvent{bs: bs} }

func (p *perEvent) Next() *Event {
	for p.pos >= len(p.b.Events) {
		if p.done {
			return nil
		}
		p.pos = 0
		if !p.bs.NextBatch(&p.b) {
			p.done = true
			if len(p.b.Events) == 0 {
				return nil
			}
		}
	}
	e := p.b.Events[p.pos]
	p.pos++
	return e
}

// Err proxies the wrapped batch source's Err, if any.
func (p *perEvent) Err() error {
	if es, ok := p.bs.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// DrainBatches reads a batch source to exhaustion and returns all
// events. Arena-backed sources recycle slabs, so the result is only
// safe for sources with GC-managed events (e.g. Batcher, SliceSource).
func DrainBatches(bs BatchSource) []*Event {
	var out []*Event
	var b Batch
	for {
		more := bs.NextBatch(&b)
		out = append(out, b.Events...)
		if !more {
			return out
		}
	}
}
