// Package model resolves a parsed CAESAR file (internal/lang) into a
// validated, compiled CAESAR model (paper Def. 4): the set of context
// types with a default context, and the context-aware event queries
// associated with each context, with all event types, pattern
// variables and predicates resolved and type-checked.
package model

import (
	"fmt"
	"sort"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/lang"
	"github.com/caesar-cep/caesar/internal/predicate"
)

// MaxContexts bounds the number of context types: the runtime keeps
// the set of current context windows in a single machine word
// (paper §5.1: "context bit vector ... one bit for each context
// type").
const MaxContexts = 64

// Context is one application context type (paper Def. 1). Index is
// the context's bit position in the context bit vector; contexts are
// indexed in alphabetical name order for the constant-time lookup the
// paper describes (§6.2).
type Context struct {
	Name    string
	Index   int
	Default bool

	// Deriving are the window queries associated with this context
	// (they run while a window of this context holds).
	Deriving []*Query
	// Processing are the DERIVE queries associated with this context.
	Processing []*Query
}

// Mask returns the bit mask with only this context's bit set.
func (c *Context) Mask() uint64 { return 1 << uint(c.Index) }

// Step is one positive step of a compiled pattern.
type Step struct {
	Schema *event.Schema
	Var    string
	// Slot is the variable's position in the query's predicate
	// environment (and in match bindings).
	Slot int
}

// Negation is one negated pattern atom: no event of Schema may occur
// between positive step Anchor-1 and positive step Anchor. Anchor==0
// places the negation before the first positive step; Anchor==len
// (steps) after the last. Conds are the WHERE conjuncts referencing
// the negated variable; an event only invalidates a match if it
// satisfies all of them.
//
// When some condition is an equi-join between an attribute of the
// negated event and an expression over positive variables (e.g.
// p1.vid = p2.vid), HashField/HashProbe record it so the pattern
// operator can index its negation buffer by that attribute instead
// of scanning it (HashProbe is nil when no such condition exists).
// HashCond is that condition's position in Conds.
type Negation struct {
	Schema *event.Schema
	Var    string
	Slot   int
	Anchor int
	Conds  []*predicate.Compiled

	HashField int
	HashProbe *predicate.Compiled
	HashCond  int
}

// Pattern is a compiled PATTERN clause: the positive SEQ steps in
// order plus anchored negations.
type Pattern struct {
	Steps []Step
	Negs  []Negation
}

// Query is a compiled context-aware event query (paper Def. 3).
type Query struct {
	ID     int
	Name   string // diagnostic label: "q3(DERIVE TollNotification)"
	Action lang.Action

	// Target is the context initiated/switched-to/terminated by a
	// window query; nil for DERIVE queries.
	Target *Context

	// Out is the derived event schema and Args its attribute
	// expressions (DERIVE queries; nil otherwise).
	Out  *event.Schema
	Args []*predicate.Compiled

	// Tumble is the tumbling aggregation window width (TUMBLE
	// extension; 0 = plain derivation) and Aggs the aggregate
	// specifications of the DERIVE arguments (set only when Tumble >
	// 0; Args is then nil).
	Tumble int64
	Aggs   []AggSpec

	Pattern *Pattern
	Env     *predicate.Env

	// Filters are WHERE conjuncts over positive variables only, each
	// annotated with the variable slots it reads so the matcher can
	// evaluate it as early as possible.
	Filters []*predicate.Compiled

	// Contexts are the context windows this query operates in, and
	// Mask their combined bit mask.
	Contexts []*Context
	Mask     uint64

	// Within is the pattern matching horizon in time units: a partial
	// match older than this never completes. It is taken from the
	// query's WITHIN clause or derived from timestamp-pinning WHERE
	// conjuncts; 0 means "engine default".
	Within int64

	// Decl is the source declaration, for diagnostics.
	Decl *lang.QueryDecl
}

// IsWindowQuery reports whether the query derives a context window
// transition rather than a complex event.
func (q *Query) IsWindowQuery() bool { return q.Action != lang.ActionDerive }

// Produces returns the schema of events this query emits into the
// stream, or nil for window queries.
func (q *Query) Produces() *event.Schema { return q.Out }

// ConsumedTypes returns the schemas of the positive pattern steps.
func (q *Query) ConsumedTypes() []*event.Schema {
	out := make([]*event.Schema, len(q.Pattern.Steps))
	for i, s := range q.Pattern.Steps {
		out[i] = s.Schema
	}
	return out
}

// Model is the compiled CAESAR model (paper Def. 4): input/output
// streams are implicit; C is Contexts with default Default.
type Model struct {
	Registry *event.Registry
	Contexts []*Context // alphabetical by name; Index = position
	Default  *Context
	Queries  []*Query

	byName map[string]*Context
	// derivedBy maps an event type name to the queries producing it.
	derivedBy map[string][]*Query
}

// ContextByName resolves a context type.
func (m *Model) ContextByName(name string) (*Context, bool) {
	c, ok := m.byName[name]
	return c, ok
}

// DerivedBy returns the queries that produce events of the named
// type; external (source) types return nil.
func (m *Model) DerivedBy(typeName string) []*Query { return m.derivedBy[typeName] }

// IsDerivedType reports whether events of the named type are produced
// by some query (vs. arriving on the input stream).
func (m *Model) IsDerivedType(typeName string) bool { return len(m.derivedBy[typeName]) > 0 }

// Compile resolves and validates a parsed file into a Model.
func Compile(f *lang.File) (*Model, error) {
	m := &Model{
		Registry:  event.NewRegistry(),
		byName:    make(map[string]*Context),
		derivedBy: make(map[string][]*Query),
	}
	if err := m.compileSchemas(f); err != nil {
		return nil, err
	}
	if err := m.compileContexts(f); err != nil {
		return nil, err
	}
	for i := range f.Queries {
		q, err := m.compileQuery(&f.Queries[i], i)
		if err != nil {
			return nil, err
		}
		m.Queries = append(m.Queries, q)
	}
	m.indexWorkloads()
	if err := m.validateDependencies(); err != nil {
		return nil, err
	}
	return m, nil
}

// CompileSource parses and compiles a model from source text.
func CompileSource(src string) (*Model, error) {
	f, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

func (m *Model) compileSchemas(f *lang.File) error {
	for _, d := range f.Schemas {
		fields := make([]event.Field, len(d.Fields))
		for i, fd := range d.Fields {
			kind, ok := event.KindFromName(fd.Type)
			if !ok {
				return fmt.Errorf("caesar: %s: unknown attribute type %q (want int, float, string or bool)", d.Pos, fd.Type)
			}
			fields[i] = event.Field{Name: fd.Name, Kind: kind}
		}
		s, err := event.NewSchema(d.Name, fields)
		if err != nil {
			return fmt.Errorf("caesar: %s: %w", d.Pos, err)
		}
		if err := m.Registry.Register(s); err != nil {
			return fmt.Errorf("caesar: %s: %w", d.Pos, err)
		}
	}
	return nil
}

func (m *Model) compileContexts(f *lang.File) error {
	if len(f.Contexts) == 0 {
		return fmt.Errorf("caesar: a model must declare at least one context (the default)")
	}
	if len(f.Contexts) > MaxContexts {
		return fmt.Errorf("caesar: at most %d context types are supported, got %d", MaxContexts, len(f.Contexts))
	}
	// Alphabetical order gives stable bit vector indices (§6.2).
	decls := append([]lang.ContextDecl(nil), f.Contexts...)
	sort.Slice(decls, func(i, j int) bool { return decls[i].Name < decls[j].Name })
	for i, d := range decls {
		if _, dup := m.byName[d.Name]; dup {
			return fmt.Errorf("caesar: %s: duplicate context %q", d.Pos, d.Name)
		}
		c := &Context{Name: d.Name, Index: i, Default: d.Default}
		m.Contexts = append(m.Contexts, c)
		m.byName[d.Name] = c
		if d.Default {
			if m.Default != nil {
				return fmt.Errorf("caesar: %s: multiple default contexts (%q and %q)", d.Pos, m.Default.Name, d.Name)
			}
			m.Default = c
		}
	}
	if m.Default == nil {
		return fmt.Errorf("caesar: exactly one context must be declared DEFAULT")
	}
	return nil
}

func (m *Model) compileQuery(d *lang.QueryDecl, id int) (*Query, error) {
	q := &Query{ID: id, Action: d.Action, Decl: d, Within: d.Within}
	switch d.Action {
	case lang.ActionDerive:
		q.Name = fmt.Sprintf("q%d(DERIVE %s)", id, d.Derive.Type)
	default:
		q.Name = fmt.Sprintf("q%d(%s CONTEXT %s)", id, d.Action, d.Target)
	}

	// Resolve the pattern into positive steps and anchored negations.
	env := predicate.NewEnv()
	pat, err := compilePattern(d.Pattern, m.Registry, env, d.Pos)
	if err != nil {
		return nil, err
	}
	q.Pattern = pat
	q.Env = env

	// Split WHERE into positive filters and negation conditions.
	if err := q.attachWhere(d); err != nil {
		return nil, err
	}

	// DERIVE head.
	if d.Action == lang.ActionDerive {
		out, ok := m.Registry.Lookup(d.Derive.Type)
		if !ok {
			return nil, fmt.Errorf("caesar: %s: DERIVE of undeclared event type %q", d.Pos, d.Derive.Type)
		}
		if len(d.Derive.Args) != out.NumFields() {
			return nil, fmt.Errorf("caesar: %s: %s expects %d attributes, DERIVE supplies %d",
				d.Pos, out.Name(), out.NumFields(), len(d.Derive.Args))
		}
		q.Out = out
		if d.Tumble > 0 {
			q.Tumble = d.Tumble
			for _, neg := range pat.Negs {
				if neg.Anchor == len(pat.Steps) {
					return nil, fmt.Errorf("caesar: %s: TUMBLE cannot be combined with a trailing negation (its matches emit after their window closed)", d.Pos)
				}
			}
			if err := m.compileAggs(q, d, out); err != nil {
				return nil, err
			}
		} else {
			for i, arg := range d.Derive.Args {
				if containsAggCall(arg) {
					return nil, fmt.Errorf("caesar: %s: aggregate functions require a TUMBLE clause", arg.ExprPos())
				}
				c, err := predicate.Compile(arg, env)
				if err != nil {
					return nil, err
				}
				want := out.Field(i).Kind
				if !assignableKind(want, c.Kind()) {
					return nil, fmt.Errorf("caesar: %s: DERIVE %s.%s expects %s, expression has %s",
						d.Pos, out.Name(), out.Field(i).Name, want, c.Kind())
				}
				if negRefs(c, pat) {
					return nil, fmt.Errorf("caesar: %s: DERIVE expression must not reference negated variable", d.Pos)
				}
				q.Args = append(q.Args, c)
			}
		}
	} else {
		if d.Tumble > 0 {
			return nil, fmt.Errorf("caesar: %s: TUMBLE applies to DERIVE queries only", d.Pos)
		}
		target, ok := m.byName[d.Target]
		if !ok {
			return nil, fmt.Errorf("caesar: %s: %s of undeclared context %q", d.Pos, d.Action, d.Target)
		}
		q.Target = target
	}

	// CONTEXT clause; empty means implied default context (made
	// explicit here — plan generation phase 1, §4.2).
	names := d.Contexts
	if len(names) == 0 {
		names = []string{m.Default.Name}
	}
	seen := map[string]bool{}
	for _, n := range names {
		c, ok := m.byName[n]
		if !ok {
			return nil, fmt.Errorf("caesar: %s: query refers to undeclared context %q", d.Pos, n)
		}
		if seen[n] {
			return nil, fmt.Errorf("caesar: %s: duplicate context %q in CONTEXT clause", d.Pos, n)
		}
		seen[n] = true
		q.Contexts = append(q.Contexts, c)
		q.Mask |= c.Mask()
	}
	if d.Action == lang.ActionSwitch && seen[d.Target] {
		return nil, fmt.Errorf("caesar: %s: SWITCH CONTEXT %s cannot run within its own target context", d.Pos, d.Target)
	}
	return q, nil
}

func assignableKind(field, expr event.Kind) bool {
	return field == expr || (field == event.KindFloat && expr == event.KindInt)
}

// negRefs reports whether a compiled expression reads any negated
// variable slot of the pattern.
func negRefs(c *predicate.Compiled, pat *Pattern) bool {
	for _, n := range pat.Negs {
		if c.Vars().Has(n.Slot) {
			return true
		}
	}
	return false
}

func compilePattern(node lang.PatternNode, reg *event.Registry, env *predicate.Env, qpos lang.Pos) (*Pattern, error) {
	pat := &Pattern{}
	var atoms []*lang.PatternEvent
	var flatten func(n lang.PatternNode)
	flatten = func(n lang.PatternNode) {
		switch x := n.(type) {
		case *lang.PatternEvent:
			atoms = append(atoms, x)
		case *lang.PatternSeq:
			for _, p := range x.Parts {
				flatten(p)
			}
		}
	}
	flatten(node)
	if len(atoms) == 0 {
		return nil, fmt.Errorf("caesar: %s: empty pattern", qpos)
	}
	synth := 0
	for _, a := range atoms {
		schema, ok := reg.Lookup(a.Type)
		if !ok {
			return nil, fmt.Errorf("caesar: %s: pattern refers to undeclared event type %q", a.Pos, a.Type)
		}
		name := a.Var
		if name == "" {
			name = fmt.Sprintf("_%d", synth)
			synth++
		}
		slot, err := env.Add(name, schema)
		if err != nil {
			return nil, fmt.Errorf("caesar: %s: %w", a.Pos, err)
		}
		if a.Negated {
			pat.Negs = append(pat.Negs, Negation{
				Schema: schema, Var: name, Slot: slot, Anchor: len(pat.Steps),
			})
		} else {
			pat.Steps = append(pat.Steps, Step{Schema: schema, Var: name, Slot: slot})
		}
	}
	if len(pat.Steps) == 0 {
		return nil, fmt.Errorf("caesar: %s: pattern needs at least one non-negated event", qpos)
	}
	return pat, nil
}

// attachWhere compiles the WHERE clause: conjuncts over positive
// variables become filters; a conjunct referencing exactly one
// negated variable becomes that negation's condition; conjuncts
// referencing two negated variables are not supported.
func (q *Query) attachWhere(d *lang.QueryDecl) error {
	if d.Where == nil {
		return nil
	}
	negSlots := map[int]*Negation{}
	for i := range q.Pattern.Negs {
		n := &q.Pattern.Negs[i]
		negSlots[n.Slot] = n
	}
	for _, conj := range predicate.Conjuncts(d.Where) {
		c, err := predicate.CompileBool(conj, q.Env)
		if err != nil {
			return err
		}
		var owner *Negation
		count := 0
		for slot, n := range negSlots {
			if c.Vars().Has(slot) {
				owner = n
				count++
			}
		}
		switch count {
		case 0:
			q.Filters = append(q.Filters, c)
		case 1:
			owner.Conds = append(owner.Conds, c)
			if owner.HashProbe == nil && q.tryHashCond(owner, conj) {
				owner.HashCond = len(owner.Conds) - 1
			}
		default:
			return fmt.Errorf("caesar: %s: WHERE conjunct %s relates two negated variables; not supported",
				conj.ExprPos(), conj.String())
		}
	}
	return nil
}

// tryHashCond recognizes an equi-join between the negated variable
// and the positive variables in the conjunct and records it on the
// negation for buffer indexing, reporting whether it did. Failure to
// recognize is fine — the pattern falls back to scanning.
func (q *Query) tryHashCond(neg *Negation, conj lang.Expr) bool {
	b, ok := conj.(*lang.BinaryExpr)
	if !ok || b.Op != lang.OpEq {
		return false
	}
	try := func(refSide, probeSide lang.Expr) bool {
		ref, ok := refSide.(*lang.AttrRef)
		if !ok || ref.Var != neg.Var {
			return false
		}
		field := neg.Schema.FieldIndex(ref.Attr)
		if field < 0 {
			return false
		}
		probe, err := predicate.Compile(probeSide, q.Env)
		if err != nil || probe.Vars().Has(neg.Slot) {
			return false
		}
		// Map-key equality is exact per kind; a probe of a different
		// kind than the indexed field (int vs. float) would miss
		// buckets that Value.Equal would match.
		if probe.Kind() != neg.Schema.Field(field).Kind {
			return false
		}
		// The probe must read positive variables only: slots of other
		// negations would be nil in the binding.
		for i := range q.Pattern.Negs {
			if probe.Vars().Has(q.Pattern.Negs[i].Slot) {
				return false
			}
		}
		neg.HashField = field
		neg.HashProbe = probe
		return true
	}
	return try(b.L, b.R) || try(b.R, b.L)
}

func (m *Model) indexWorkloads() {
	for _, q := range m.Queries {
		for _, c := range q.Contexts {
			if q.IsWindowQuery() {
				c.Deriving = append(c.Deriving, q)
			} else {
				c.Processing = append(c.Processing, q)
			}
		}
		if q.Out != nil {
			m.derivedBy[q.Out.Name()] = append(m.derivedBy[q.Out.Name()], q)
		}
	}
}

// validateDependencies enforces the paper's §3.3 assumption 1: event
// queries associated with different contexts are independent. When a
// query consumes a type derived by another query, the producer must
// be associated with (at least) every context of the consumer — the
// producer then runs whenever the consumer does, and the combined
// query plan stays within one context workload (§4.2). It also
// rejects cyclic derivations.
func (m *Model) validateDependencies() error {
	for _, q := range m.Queries {
		for _, s := range q.Pattern.Steps {
			for _, producer := range m.derivedBy[s.Schema.Name()] {
				if producer.Mask&q.Mask != q.Mask {
					return fmt.Errorf("caesar: %s consumes %s derived by %s, which is suspended in some of the consumer's contexts; queries in different contexts must be independent",
						q.Name, s.Schema.Name(), producer.Name)
				}
			}
		}
	}
	// Cycle detection over the derives-consumes graph.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int)
	var visit func(q *Query) error
	visit = func(q *Query) error {
		switch color[q.ID] {
		case gray:
			return fmt.Errorf("caesar: cyclic event derivation involving %s", q.Name)
		case black:
			return nil
		}
		color[q.ID] = gray
		for _, s := range q.Pattern.Steps {
			for _, producer := range m.derivedBy[s.Schema.Name()] {
				if err := visit(producer); err != nil {
					return err
				}
			}
		}
		color[q.ID] = black
		return nil
	}
	for _, q := range m.Queries {
		if err := visit(q); err != nil {
			return err
		}
	}
	return nil
}
