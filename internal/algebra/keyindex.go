package algebra

import (
	"github.com/caesar-cep/caesar/internal/event"
)

// keyIndex maps hash-join keys to buckets with exactly the semantics
// of a map[event.Value]V: two keys meet iff their Value structs are
// equal. Int keys — every Linear Road join attribute — live in a
// map[int64], so a probe hashes eight bytes instead of the whole
// Value (kind, int, float and string header); every other key falls
// back to a Value-keyed map, created on first use.
type keyIndex[V any] struct {
	ints map[int64]V
	vals map[event.Value]V
}

func newKeyIndex[V any]() *keyIndex[V] {
	return &keyIndex[V]{ints: map[int64]V{}}
}

// isIntKey reports whether k takes the int fast path: an int Value
// whose other payload fields are zero, as event.Int64 builds it, so
// int64 equality coincides with Value struct equality.
func isIntKey(k event.Value) bool {
	return k.Kind == event.KindInt && k.Float == 0 && k.Str == ""
}

// get returns k's entry, or V's zero value when k is absent.
func (x *keyIndex[V]) get(k event.Value) V {
	if isIntKey(k) {
		return x.ints[k.Int]
	}
	return x.vals[k]
}

func (x *keyIndex[V]) set(k event.Value, v V) {
	if isIntKey(k) {
		x.ints[k.Int] = v
		return
	}
	if x.vals == nil {
		x.vals = map[event.Value]V{}
	}
	x.vals[k] = v
}

func (x *keyIndex[V]) len() int { return len(x.ints) + len(x.vals) }

// each calls f on every entry, in no particular order. Int keys are
// handed out as event.Int64 values.
func (x *keyIndex[V]) each(f func(k event.Value, v V)) {
	for k, v := range x.ints {
		f(event.Int64(k), v)
	}
	for k, v := range x.vals {
		f(k, v)
	}
}

// evict deletes every entry for which drop reports true.
func (x *keyIndex[V]) evict(drop func(V) bool) {
	for k, v := range x.ints {
		if drop(v) {
			delete(x.ints, k)
		}
	}
	for k, v := range x.vals {
		if drop(v) {
			delete(x.vals, k)
		}
	}
}

// clear deletes every entry, keeping the maps' storage.
func (x *keyIndex[V]) clear() {
	clear(x.ints)
	clear(x.vals)
}
