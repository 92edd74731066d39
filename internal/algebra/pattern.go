package algebra

import (
	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/predicate"
)

// PatternSpec configures a pattern operator instance.
type PatternSpec struct {
	// Steps are the positive SEQ steps in order; Negs the anchored
	// negations (both come from a compiled model query).
	Steps []model.Step
	Negs  []model.Negation
	// Filters are WHERE conjuncts over positive variables. The
	// pattern evaluates each as soon as all its variables are bound
	// (eager predicate evaluation). A non-optimized plan passes nil
	// here and applies the conjuncts in a downstream Filter operator
	// instead (paper Fig. 6a vs. 6b).
	Filters []*predicate.Compiled
	// NumSlots is the predicate environment size (positive + negated
	// variables).
	NumSlots int
	// DisableNegIndex turns off the negation-buffer hash index (used
	// by the ablation benchmarks to quantify its benefit).
	DisableNegIndex bool
	// Horizon bounds the time span of a match: a partial match whose
	// first event is older than Horizon expires, and a trailing
	// negation holds back emission for Horizon time units. Must be
	// positive.
	Horizon int64
}

// PatternStats counts the work a pattern instance has performed; the
// benchmark harness and tests read these.
//
// EventsSeen, MatchesEmitted and MatchesNegated are semantic counts
// (the differential tests assert exact parity with the reference
// evaluator). The remaining counters describe kernel-internal work:
// shared run nodes created and expired (PartialsCreated and
// PartialsExpired, names kept for the snapshot wire format) and
// enumeration-time predicate rejections (FilteredOut).
type PatternStats struct {
	EventsSeen      uint64
	PartialsCreated uint64
	PartialsExpired uint64
	MatchesEmitted  uint64
	MatchesNegated  uint64
	FilteredOut     uint64
}

// Footprint is the retained state of a pattern operator: what the
// garbage collector, the telemetry gauges and the tests observe.
// RunNodes and PredEntries count the automaton kernel's shared-run
// DAG (nodes and predecessor-set entries — a range predecessor counts
// as one entry regardless of how many nodes it spans, which is
// exactly the sharing the automaton buys).
type Footprint struct {
	NegBuffered int
	Pending     int
	RunNodes    int
	PredEntries int
}

// Retained sums the footprint's record counts (used by tests that
// only care whether state is held at all).
func (f Footprint) Retained() int {
	return f.NegBuffered + f.Pending + f.RunNodes + f.PredEntries
}

// Pattern is the P operator (paper §4.1): it consumes an event
// stream and incrementally constructs the event sequences matched by
// SEQ, honoring negation and eagerly applied filter predicates.
// Partial state held between invocations is the query's "context
// history" (§6.2); Reset discards it.
//
// The spec is first compiled into a Program (automaton.go): the SEQ
// steps become automaton states, and WHERE conjuncts are scheduled
// onto the earliest transition (or the latest enumeration level)
// where their variables are bound. The kernel then runs the program
// over a shared-run DAG (runs.go) with lazy match enumeration.
//
// All kernel state — run nodes, binding regions, Match and
// pendingMatch records — lives in a per-operator arena (arena.go)
// and recycles on expiry, rejection, Reset and Release, so
// steady-state processing performs no heap allocation.
type Pattern struct {
	prog *Program
	k    *autoKernel
}

// pendingMatch is a completed match waiting out a trailing
// negation's deadline.
type pendingMatch struct {
	m        *Match
	lastEnd  event.Time
	deadline event.Time
	killed   bool
}

// NewPattern validates the spec, compiles it and builds the operator.
func NewPattern(spec PatternSpec) (*Pattern, error) {
	prog, err := CompileProgram(spec)
	if err != nil {
		return nil, err
	}
	return NewPatternFromProgram(prog), nil
}

// NewPatternFromProgram builds an operator instance over an already
// compiled program. The plan layer compiles one Program per query
// plan and shares it across all partition instances; the program is
// immutable after compilation, so sharing is safe across workers.
func NewPatternFromProgram(prog *Program) *Pattern {
	return &Pattern{prog: prog, k: newAutoKernel(prog)}
}

// Program returns the compiled program the operator runs.
func (p *Pattern) Program() *Program { return p.prog }

// Stats returns a copy of the operator counters.
func (p *Pattern) Stats() PatternStats { return p.k.stats() }

// Reset discards all partial state, negation buffers and pending
// emissions. The runtime calls it when the query's original context
// window ends and its history may be safely discarded (§6.2). The
// discarded records return to the arena, so context-window
// close/reopen cycles reuse the same memory instead of churning the
// allocator.
func (p *Pattern) Reset() { p.k.reset() }

// Release returns emitted matches to the operator's arena for reuse.
// The caller that drained Advance/Process output calls it once it has
// projected the matches into derived events; the matches and their
// bindings must not be read afterwards. Callers that retain matches
// (tests, ad-hoc drivers) simply never call it — the arena then grows
// instead of recycling.
func (p *Pattern) Release(ms []*Match) { p.k.release(ms) }

// ArenaChunks reports how many slabs the operator's arena has
// allocated over its lifetime — the telemetry layer's occupancy
// signal (a warmed steady state allocates none).
func (p *Pattern) ArenaChunks() int { return p.k.arenaChunks() }

// MemoryFootprint returns the operator's retained state counts; the
// garbage collector, the per-query telemetry gauges and tests
// observe it.
func (p *Pattern) MemoryFootprint() Footprint { return p.k.footprint() }

// Advance moves the operator's clock to now: it expires partial
// state older than the horizon, prunes negation buffers, and flushes
// pending matches whose trailing-negation deadline has passed,
// appending them to out. Call once per stream transaction, before
// Process.
func (p *Pattern) Advance(now event.Time, out []*Match) []*Match {
	return p.k.advance(now, out)
}

// Process consumes one batch of events (all with the same occurrence
// end time, per the transaction discipline) and appends completed
// matches to out. Events whose type matches no step or negation are
// ignored.
func (p *Pattern) Process(batch []*event.Event, out []*Match) []*Match {
	return p.k.process(batch, out)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func maxT(a, b event.Time) event.Time {
	if a > b {
		return a
	}
	return b
}
