package main

import (
	"io"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
)

// source is the event.BatchSource the engine reads: an event.Reader
// over the rendered stream, wrapped so the benchmark can time decode
// and count what each batch holds. It keeps the Reader's Reclaimer and Err
// contracts, so the engine treats it exactly like the bare Reader.
//
// NextBatch runs on the engine's decode goroutine. Run waits for that
// goroutine, so the counters are safe to read after Run returns.
type source struct {
	rd    *event.Reader
	timed *timedReader // non-nil in traced runs

	firstCallNs int64
	nextBatchNs int64
	batches     int
	events      int
	ticks       int
}

func newSource(r io.Reader, reg *event.Registry, traced bool) *source {
	s := &source{}
	if traced {
		s.timed = &timedReader{r: r}
		r = s.timed
	}
	s.rd = event.NewReader(r, reg)
	return s
}

// NextBatch implements event.BatchSource.
func (s *source) NextBatch(b *event.Batch) bool {
	start := time.Now().UnixNano()
	if s.firstCallNs == 0 {
		s.firstCallNs = start
	}
	more := s.rd.NextBatch(b)
	now := time.Now().UnixNano()
	s.nextBatchNs += now - start
	if len(b.Events) > 0 {
		s.batches++
		s.events += len(b.Events)
		last := event.Time(-1 << 62)
		for _, e := range b.Events {
			if t := e.End(); t != last {
				last = t
				s.ticks++
			}
		}
	}
	return more
}

// Next implements event.Source, which Engine.Run takes. Run feeds a
// source that also implements event.BatchSource through NextBatch, so
// Next only completes the interface.
func (s *source) Next() *event.Event { return s.rd.Next() }

// ReclaimBefore implements event.Reclaimer.
func (s *source) ReclaimBefore(t event.Time) int { return s.rd.ReclaimBefore(t) }

// Err reports the Reader's decode or I/O error.
func (s *source) Err() error { return s.rd.Err() }

// timedReader accumulates the time its caller spends blocked in Read.
type timedReader struct {
	r      io.Reader
	waitNs int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	t.waitNs += int64(time.Since(start))
	return n, err
}

// pace is the open-loop generator: it writes tick k into w when it is
// due, at start + k·period, whether or not the engine has caught up,
// and records in lagNs how late each write began. A late generator
// writes the overdue ticks back to back; the latency clock still runs
// from each tick's due time, so its stalls count against the engine.
func pace(w *io.PipeWriter, ticks []tick, start time.Time, period time.Duration, lagNs []int64) {
	for k := range ticks {
		due := start.Add(time.Duration(k) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lagNs[k] = int64(time.Since(due))
		if _, err := w.Write(ticks[k].lines); err != nil {
			return // the engine stopped reading; Run reports why
		}
	}
	w.Close()
}
