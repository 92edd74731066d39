// Package core assembles the CAESAR system — the paper's primary
// contribution — out of its layers (paper Fig. 8): the specification
// layer (internal/lang, internal/model), the optimization layer
// (internal/plan, internal/optimizer) and the execution layer
// (internal/runtime). An Engine owns a compiled model, the optimized
// (or deliberately non-optimized) query plan, and a configured
// runtime; Run executes streams against it.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/caesar-cep/caesar/internal/event"
	"github.com/caesar-cep/caesar/internal/model"
	"github.com/caesar-cep/caesar/internal/optimizer"
	"github.com/caesar-cep/caesar/internal/plan"
	"github.com/caesar-cep/caesar/internal/runtime"
	"github.com/caesar-cep/caesar/internal/telemetry"
)

// Config selects the execution strategy and tuning knobs of an
// Engine. The zero value is the fully optimized context-aware
// configuration of the paper.
type Config struct {
	// ContextIndependent switches to the state-of-the-art baseline
	// (§7.3): all queries always on, contexts privately re-derived
	// per query.
	ContextIndependent bool
	// Sharing enables context workload sharing across overlapping
	// windows (§5.3). Context-aware mode only.
	Sharing bool
	// FusePatterns enables the MQO pattern-fusion pass (§5.3):
	// DERIVE queries with identical pattern, filters, horizon and
	// context mask share one pattern instance. Context-aware mode
	// only.
	FusePatterns bool
	// DisablePushDown keeps context windows above the pattern/filter
	// operators (the Fig. 6a / Fig. 11b non-optimized plan).
	// Context-aware mode only; the baseline is always non-pushed.
	DisablePushDown bool
	// PartitionBy names the stream partition key attributes.
	PartitionBy []string
	// Workers is the worker pool size (default 4). Ignored when the
	// sharded runtime is active (Shards > 1): each shard embeds its
	// own execution worker.
	Workers int
	// Shards selects the sharded multi-core runtime: N engine shards
	// each own a disjoint set of stream partitions end to end and
	// execute on their own goroutine, fed through lock-free SPSC
	// rings (see runtime.Config.Shards). 0 defaults to GOMAXPROCS
	// unless Workers is set explicitly; 1 selects the classic
	// distributor + worker-pool pipeline.
	Shards int
	// Pacing > 0 replays the stream in scaled real time: one
	// application time unit takes Pacing of wall time.
	Pacing time.Duration
	// ReadAhead bounds the ingest read-ahead ring (decoded batches the
	// decode goroutine may run ahead of dispatch); 0 means 4.
	ReadAhead int
	// DefaultHorizon overrides the default pattern matching horizon
	// (see plan.DefaultHorizon).
	DefaultHorizon int64
	// CollectOutputs retains derived events in Stats.Outputs.
	CollectOutputs bool
	// DisableDerivedArena constructs derived events on the GC heap
	// instead of the per-execution-unit slab arena (see
	// runtime.Config.DisableDerivedArena for the retention contract of
	// OnOutput events under the arena).
	DisableDerivedArena bool
	// DerivedChunkEvents sizes the derived-event arena's slabs, in
	// events; 0 picks the default.
	DerivedChunkEvents int
	// OnOutput receives every derived event; called concurrently
	// from worker goroutines.
	OnOutput func(*event.Event)
	// Telemetry, when non-nil, receives the runtime's live metric
	// families on each Run (see runtime.Config.Telemetry).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records per-transaction spans and logs
	// transactions slower than its threshold.
	Tracer *telemetry.Tracer
	// Stages, when non-nil, samples tick timelines through every
	// pipeline stage into per-stage latency histograms and the
	// /tracez flight recorder (see runtime.Config.Stages).
	Stages *telemetry.StageTracer
	// Health, when non-nil, receives the run's liveness/readiness
	// probes for /healthz (see runtime.Config.Health).
	Health *telemetry.Health
	// DurableDir, when non-empty, makes runs crash-recoverable: input
	// batches append to a write-ahead log in this directory before
	// dispatch, partition state checkpoints there periodically, and a
	// later run over the same directory recovers and resumes (see
	// runtime.Config.DurableDir for the re-feed contract and delivery
	// semantics).
	DurableDir string
	// CheckpointEvery is the checkpoint cadence in ticks (0 = default;
	// see runtime.Config.CheckpointEvery).
	CheckpointEvery int
	// WALSync controls WAL fsync cadence: < 0 leaves syncing to the
	// OS, 0 or 1 fsyncs every tick, N > 1 every N ticks (see
	// runtime.Config.WALSync).
	WALSync int
}

// Summary renders the configuration as a flat string map — the
// config block of the /buildz admin endpoint.
func (c Config) Summary() map[string]string {
	mode := "context-aware"
	if c.ContextIndependent {
		mode = "context-independent"
	}
	s := map[string]string{
		"mode":         mode,
		"sharing":      strconv.FormatBool(c.Sharing),
		"fusion":       strconv.FormatBool(c.FusePatterns),
		"pushdown":     strconv.FormatBool(!c.DisablePushDown && !c.ContextIndependent),
		"partition_by": strings.Join(c.PartitionBy, ","),
		"workers":      strconv.Itoa(c.Workers),
		"shards":       strconv.Itoa(c.Shards),
		"read_ahead":   strconv.Itoa(c.ReadAhead),
	}
	if c.Pacing > 0 {
		s["pacing"] = c.Pacing.String()
	}
	if c.DisableDerivedArena {
		s["derived_arena"] = "false"
	}
	if c.Stages != nil {
		s["trace_sample_rate"] = strconv.Itoa(c.Stages.SampleRate())
	}
	if c.DurableDir != "" {
		s["durable_dir"] = c.DurableDir
		s["checkpoint_every"] = strconv.Itoa(c.CheckpointEvery)
		s["wal_sync"] = strconv.Itoa(c.WALSync)
	}
	return s
}

// Engine is a compiled, optimized, runnable CAESAR system.
type Engine struct {
	model *model.Model
	plan  *plan.Plan
	rt    *runtime.Engine
	cfg   Config
}

// NewEngine compiles the plan for a model and configures the runtime.
func NewEngine(m *model.Model, cfg Config) (*Engine, error) {
	opts := plan.Optimized()
	mode := runtime.ContextAware
	if cfg.ContextIndependent {
		opts = plan.Baseline()
		mode = runtime.ContextIndependent
		if cfg.Sharing || cfg.FusePatterns {
			return nil, fmt.Errorf("caesar: workload sharing and pattern fusion require context-aware mode")
		}
		if cfg.DisablePushDown {
			return nil, fmt.Errorf("caesar: the context-independent baseline is already non-pushed-down")
		}
	} else if cfg.DisablePushDown {
		opts = plan.NonOptimized()
	}
	opts.DefaultHorizon = cfg.DefaultHorizon

	p, err := plan.Build(m, opts)
	if err != nil {
		return nil, err
	}
	rt, err := runtime.New(runtime.Config{
		Plan:           p,
		Mode:           mode,
		Sharing:        cfg.Sharing,
		Fusion:         cfg.FusePatterns,
		PartitionBy:    cfg.PartitionBy,
		Workers:        cfg.Workers,
		Shards:         cfg.Shards,
		Pacing:         cfg.Pacing,
		ReadAhead:      cfg.ReadAhead,
		CollectOutputs: cfg.CollectOutputs,
		OnOutput:       cfg.OnOutput,
		Telemetry:      cfg.Telemetry,
		Tracer:         cfg.Tracer,
		Stages:         cfg.Stages,
		Health:         cfg.Health,

		DisableDerivedArena: cfg.DisableDerivedArena,
		DerivedChunkEvents:  cfg.DerivedChunkEvents,

		DurableDir:      cfg.DurableDir,
		CheckpointEvery: cfg.CheckpointEvery,
		WALSync:         cfg.WALSync,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{model: m, plan: p, rt: rt, cfg: cfg}, nil
}

// NewEngineFromSource parses, compiles and configures in one step.
func NewEngineFromSource(src string, cfg Config) (*Engine, error) {
	m, err := model.CompileSource(src)
	if err != nil {
		return nil, err
	}
	return NewEngine(m, cfg)
}

// Model returns the compiled model.
func (e *Engine) Model() *model.Model { return e.model }

// Plan returns the compiled query plan.
func (e *Engine) Plan() *plan.Plan { return e.plan }

// Registry returns the model's event type registry; event sources
// must build events against it.
func (e *Engine) Registry() *event.Registry { return e.model.Registry }

// SharingStats reports how much the workload-sharing pass shrank the
// query set (1:1 when sharing is off).
func (e *Engine) SharingStats() optimizer.SharingStats {
	var qs []*model.Query
	for _, qp := range e.plan.Queries {
		qs = append(qs, qp.Query)
	}
	if e.cfg.Sharing {
		return optimizer.Stats(optimizer.ShareWorkload(qs), len(qs))
	}
	return optimizer.Stats(optimizer.NonShared(qs), len(qs))
}

// Run executes the engine over a source until exhaustion. Engines
// are reusable: each Run starts from fresh partition state. Sources
// that also implement event.BatchSource feed the pipelined ingest
// path (see runtime.Engine.Run).
func (e *Engine) Run(src event.Source) (*runtime.Stats, error) {
	return e.rt.Run(src)
}

// RunBatches executes the engine over a batch-oriented source, e.g. a
// linearroad.Stream that generates directly into an event arena.
func (e *Engine) RunBatches(src event.BatchSource) (*runtime.Stats, error) {
	return e.rt.RunBatches(src)
}
