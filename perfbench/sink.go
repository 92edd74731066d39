package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
)

// digest is an order-independent fingerprint of a run's derived
// events: their count and the wrapping sum of a 64-bit hash of each
// event's type, interval and values. Summing makes it independent of
// emission order and of which shard or worker emitted an event, while
// still counting duplicates.
type digest struct {
	count uint64
	sum   uint64
}

func (d digest) String() string { return fmt.Sprintf("%d:%016x", d.count, d.sum) }

// eventHash hashes one derived event: its type, interval bounds and
// each value's kind and bits, folded word by word. typeHash holds a
// per-type seed indexed by Schema.Index.
func eventHash(typeHash []uint64, e *event.Event) uint64 {
	h := mix(typeHash[e.Schema.Index()], uint64(e.Time.Start))
	h = mix(h, uint64(e.Time.End))
	for _, v := range e.Values {
		h = mix(h, uint64(v.Kind))
		switch v.Kind {
		case event.KindFloat:
			h = mix(h, math.Float64bits(v.Float))
		case event.KindString:
			h = mix(h, stringHash(v.Str))
		default:
			h = mix(h, uint64(v.Int))
		}
	}
	// splitmix64 finalizer, so that summing hashes does not cancel
	// structured differences between events.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func mix(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// stringHash is FNV-1a over s.
func stringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// typeHashes seeds eventHash for every type of reg by name, so that
// engines compiled separately from one model digest alike.
func typeHashes(reg *event.Registry) []uint64 {
	scs := reg.Schemas()
	hs := make([]uint64, len(scs))
	for _, sc := range scs {
		hs[sc.Index()] = stringHash(sc.Name())
	}
	return hs
}

// sink is a run's OnOutput consumer. OnOutput is called from worker
// goroutines concurrently at Shards=1 and from the merge goroutine
// otherwise, so the digest is atomic and the latency samples are
// guarded by a mutex. Nothing is allocated per event once the sample
// buffer has grown to the run's size.
type sink struct {
	typeHash []uint64
	sinks    []*event.Schema
	// due maps a sink event's End() to the wall time its input tick
	// was due; nil disables latency sampling.
	due func(event.Time) (int64, bool)

	count   atomic.Uint64
	sum     atomic.Uint64
	missing atomic.Int64 // sink events whose tick had no due time

	mu    sync.Mutex
	latNs []int64
}

// newSink returns a sink for reg's engine that appends its latency
// samples to buf[:0].
func newSink(reg *event.Registry, names []string, buf []int64) (*sink, error) {
	s := &sink{typeHash: typeHashes(reg), latNs: buf[:0]}
	for _, n := range names {
		sc, ok := reg.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("model has no sink type %s", n)
		}
		s.sinks = append(s.sinks, sc)
	}
	return s, nil
}

func (s *sink) onOutput(e *event.Event) {
	now := time.Now().UnixNano()
	s.count.Add(1)
	s.sum.Add(eventHash(s.typeHash, e))
	if s.due == nil || !s.isSink(e.Schema) {
		return
	}
	due, ok := s.due(e.End())
	if !ok {
		s.missing.Add(1)
		return
	}
	s.mu.Lock()
	s.latNs = append(s.latNs, now-due)
	s.mu.Unlock()
}

func (s *sink) isSink(sc *event.Schema) bool {
	for _, k := range s.sinks {
		if k == sc {
			return true
		}
	}
	return false
}

func (s *sink) digest() digest { return digest{count: s.count.Load(), sum: s.sum.Load()} }

// latencies returns the run's latency samples, or an error when a
// sink event ended at no input tick (a benchmark fault: every sink
// type's End() is its last input event's tick).
func (s *sink) latencies() ([]int64, error) {
	if m := s.missing.Load(); m > 0 {
		return nil, fmt.Errorf("%d sink events ended at no input tick", m)
	}
	return s.latNs, nil
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of
// samples, which it sorts in place; ok is false when there are none.
// The rank is ceil(q·n), so the p99 of n samples has at most
// n - ceil(0.99n) samples above it.
func percentile(samples []int64, q float64) (v int64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1], true
}

// median returns the middle value of xs (mean of the two middle ones
// for an even count), leaving xs unchanged; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
