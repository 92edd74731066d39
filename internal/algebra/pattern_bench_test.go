package algebra

import (
	"testing"

	"github.com/caesar-cep/caesar/internal/event"
)

// The BenchmarkPattern* family measures the arena kernel in steady
// state: the stream is pre-generated, warm-up passes fill the free
// lists, and every iteration drives Advance+Process per tick followed
// by Release — the runtime's usage pattern — and ends with Reset, the
// runtime's context-window close. Reset returns all retained state to
// the arena, so the next pass replays the same stream against warm
// free lists with operator time restarting from the stream head.
// (Shifting event times in place instead would mutate events still
// held in the negation buffers and defeat expiry.)
type benchStream struct {
	evs []*event.Event
	// ticks[i] is the end index of the i-th same-timestamp batch.
	ticks []int
}

func newBenchStream(evs []*event.Event) *benchStream {
	s := &benchStream{evs: evs}
	i := 0
	for i < len(evs) {
		ts := evs[i].End()
		j := i
		for j < len(evs) && evs[j].End() == ts {
			j++
		}
		s.ticks = append(s.ticks, j)
		i = j
	}
	return s
}

// run drives one full pass over the stream and returns the number of
// matches emitted. scratch is the caller's reusable output slice.
func (s *benchStream) run(p *Pattern, scratch []*Match) (int, []*Match) {
	matches := 0
	i := 0
	for _, j := range s.ticks {
		ts := s.evs[i].End()
		out := p.Advance(ts, scratch[:0])
		out = p.Process(s.evs[i:j], out)
		matches += len(out)
		p.Release(out)
		scratch = out
		i = j
	}
	p.Reset()
	return matches, scratch
}

func benchPattern(b *testing.B, s *benchStream, p *Pattern) {
	b.Helper()
	var scratch []*Match
	// Two warm-up passes: the first sizes the arena, the second
	// confirms the free lists cover a full pass.
	for i := 0; i < 2; i++ {
		_, scratch = s.run(p, scratch)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		var n int
		n, scratch = s.run(p, scratch)
		total += n
	}
	b.StopTimer()
	if total == 0 {
		b.Fatal("benchmark emitted no matches")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.evs)), "ns/event")
}

// twoStepJoinStream is the join-heavy SEQ(A a, B b) WHERE a.k = b.k
// workload: 1024 A/B pairs over a 16-value key space under a horizon
// that keeps hundreds of As live, so every B faces a wide join
// frontier. The automaton kernel probes one hash bucket and walks
// only the key-matching predecessors.
func twoStepJoinStream(b *testing.B) (*benchStream, *Pattern) {
	b.Helper()
	spec, m := compileQuerySpec(b, patternModels, 1, 1000)
	sa, _ := m.Registry.Lookup("A")
	sb, _ := m.Registry.Lookup("B")
	evs := make([]*event.Event, 0, 2048)
	for i := 0; i < 1024; i++ {
		evs = append(evs,
			event.MustNew(sa, event.Time(2*i), event.Int64(int64(i)), event.Int64(int64(i%16))),
			event.MustNew(sb, event.Time(2*i+1), event.Int64(int64(i)), event.Int64(int64(i%16))))
	}
	p, err := NewPattern(spec)
	if err != nil {
		b.Fatal(err)
	}
	return newBenchStream(evs), p
}

// BenchmarkPatternTwoStepJoin measures the shared-run automaton on the
// join-heavy two-step workload in steady state.
func BenchmarkPatternTwoStepJoin(b *testing.B) {
	s, p := twoStepJoinStream(b)
	benchPattern(b, s, p)
}

// BenchmarkPatternExtensionHeavy exercises the partial-extension hot
// path: SEQ(A a, B b, C c) with two equi-join conjuncts, every event
// participating, and narrow key space so each B extends several As.
func BenchmarkPatternExtensionHeavy(b *testing.B) {
	spec, m := compileQuerySpec(b, patternModels, 2, 40)
	sa, _ := m.Registry.Lookup("A")
	sb, _ := m.Registry.Lookup("B")
	sc, _ := m.Registry.Lookup("C")
	evs := make([]*event.Event, 0, 3*1024)
	for i := 0; i < 1024; i++ {
		t := event.Time(3 * i)
		k := event.Int64(int64(i % 8))
		evs = append(evs,
			event.MustNew(sa, t, event.Int64(int64(i)), k),
			event.MustNew(sb, t+1, event.Int64(int64(i)), k),
			event.MustNew(sc, t+2, event.Int64(int64(i)), k))
	}
	p, err := NewPattern(spec)
	if err != nil {
		b.Fatal(err)
	}
	benchPattern(b, newBenchStream(evs), p)
}

// BenchmarkPatternNegationHeavy exercises the negation buffer ring:
// SEQ(A a, NOT C x, B b) with three C events per A/B pair, so expiry
// and index-bucket trimming dominate.
func BenchmarkPatternNegationHeavy(b *testing.B) {
	spec, m := compileQuerySpec(b, patternModels, 4, 40)
	sa, _ := m.Registry.Lookup("A")
	sb, _ := m.Registry.Lookup("B")
	sc, _ := m.Registry.Lookup("C")
	evs := make([]*event.Event, 0, 5*512)
	for i := 0; i < 512; i++ {
		t := event.Time(5 * i)
		k := event.Int64(int64(i % 8))
		off := event.Int64(int64((i + 1) % 8)) // C keys mostly miss
		evs = append(evs,
			event.MustNew(sa, t, event.Int64(int64(i)), k),
			event.MustNew(sc, t+1, event.Int64(1), off),
			event.MustNew(sc, t+2, event.Int64(2), off),
			event.MustNew(sc, t+3, event.Int64(3), off),
			event.MustNew(sb, t+4, event.Int64(int64(i)), k))
	}
	p, err := NewPattern(spec)
	if err != nil {
		b.Fatal(err)
	}
	benchPattern(b, newBenchStream(evs), p)
}

// BenchmarkPatternFilterHeavy exercises the reject path: a single-step
// pattern with a threshold predicate that discards 7 of 8 events, so
// binding acquire/release around a failing filter dominates.
func BenchmarkPatternFilterHeavy(b *testing.B) {
	spec, m := compileQuerySpec(b, patternModels, 0, 40) // A a WHERE a.v > 10
	sa, _ := m.Registry.Lookup("A")
	evs := make([]*event.Event, 0, 4096)
	for i := 0; i < 4096; i++ {
		v := int64(i % 8) // 0..7: all rejected
		if i%8 == 7 {
			v = 100 // one in eight passes
		}
		evs = append(evs, event.MustNew(sa, event.Time(i), event.Int64(v), event.Int64(0)))
	}
	p, err := NewPattern(spec)
	if err != nil {
		b.Fatal(err)
	}
	benchPattern(b, newBenchStream(evs), p)
}

// BenchmarkPatternNegationProbe is the toll query's probe in
// miniature: SEQ(NOT A p1, A p2) WHERE p1.k = p2.k AND p1.v + 30 =
// p2.v, with 30 keys each reporting every 30 ticks, so about six
// same-key events sit in each index bucket and the violator — the
// key's previous report — is the newest eligible one. One report in
// seven is dropped, so the report after the gap matches.
func BenchmarkPatternNegationProbe(b *testing.B) {
	spec, m := compileQuerySpec(b, patternModels, 3, 90)
	sa, _ := m.Registry.Lookup("A")
	evs := make([]*event.Event, 0, 4096)
	for i := 0; i < 4096; i++ {
		key := i % 30
		if (i/30+key)%7 == 0 {
			continue
		}
		evs = append(evs, event.MustNew(sa, event.Time(i), event.Int64(int64(i)), event.Int64(int64(key))))
	}
	p, err := NewPattern(spec)
	if err != nil {
		b.Fatal(err)
	}
	benchPattern(b, newBenchStream(evs), p)
}
