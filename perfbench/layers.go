package main

import (
	"strings"

	"github.com/caesar-cep/caesar/internal/telemetry"
)

// perLayer lists the traced run's metrics, named after the engine's
// modules. Metrics of a layer a workload does not exercise report 0
// (durability.* on a workload that does not trace durability).
var perLayer = []metricDef{
	{"model.compile_ms", "ms"},
	{"plan.build_ms", "ms"},
	{"core.new_engine_ms", "ms"},

	{"event.decode_ns_per_event", "ns/event"},
	{"event.input_wait_ms", "ms"},
	{"event.events_per_batch", "events/batch"},
	{"event.ticks_per_batch", "ticks/batch"},
	{"event.reclaimed_chunks", "count"},

	{"runtime.queue_wait_p50_us", "us"},
	{"runtime.queue_wait_p99_us", "us"},
	{"runtime.queue_wait_total_ms", "ms"},
	{"runtime.route_p50_us", "us"},
	{"runtime.route_p99_us", "us"},
	{"runtime.route_total_ms", "ms"},
	{"runtime.ring_wait_p50_us", "us"},
	{"runtime.ring_wait_p99_us", "us"},
	{"runtime.ring_wait_total_ms", "ms"},
	{"runtime.exec_p50_us", "us"},
	{"runtime.exec_p99_us", "us"},
	{"runtime.exec_total_ms", "ms"},
	{"runtime.merge_p50_us", "us"},
	{"runtime.merge_p99_us", "us"},
	{"runtime.merge_total_ms", "ms"},
	{"runtime.router_stall_ms", "ms"},
	{"runtime.shard_stall_ms", "ms"},

	{"runtime.ticks", "count"},
	{"runtime.partitions", "count"},
	{"runtime.transitions", "count"},
	{"runtime.instance_execs", "count"},
	{"runtime.suspended_skips", "count"},
	{"runtime.suspended_frac", "ratio"},
	{"runtime.events_fed", "count"},
	{"runtime.txn_p50_us", "us"},
	{"runtime.txn_p99_us", "us"},

	{"algebra.matches", "count"},
	{"algebra.filtered", "count"},
	{"algebra.negated", "count"},
	{"algebra.match_frac", "ratio"},
	{"runtime.derived_arena_chunks", "count"},

	{"durability.wal_frames", "count"},
	{"durability.wal_syncs", "count"},
	{"durability.fsync_p50_us", "us"},
	{"durability.fsync_p99_us", "us"},
	{"durability.checkpoints", "count"},
	{"durability.checkpoint_p50_ms", "ms"},
	{"durability.checkpoint_max_ms", "ms"},
	{"durability.checkpoint_bytes", "B"},
	{"durability.recovery_ms", "ms"},
	{"durability.replayed_ticks", "count"},
	{"durability.duplicate_ticks", "count"},

	{"output.sink_outputs", "count"},
	{"gen.lag_p50_ms", "ms"},
	{"gen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// tracedStages are the runtime stages split per layer. Decode is
// measured by the benchmark's own source wrapper instead, as time in
// NextBatch minus time blocked in Read.
var tracedStages = []telemetry.Stage{
	telemetry.StageQueue, telemetry.StageRoute, telemetry.StageRingWait,
	telemetry.StageExec, telemetry.StageMerge,
}

// layerMetrics derives the per-layer split of one traced run r, but
// for the durability layer (durabilityMetrics) and the harness
// metrics, which come from other runs.
func layerMetrics(r *result) map[string]float64 {
	out := map[string]float64{}
	out["model.compile_ms"] = millis(r.compileNs)
	out["plan.build_ms"] = millis(r.planNs)
	out["core.new_engine_ms"] = millis(r.engineNs)

	src, st := r.src, r.stats
	waitNs := src.timed.waitNs
	if src.events > 0 {
		out["event.decode_ns_per_event"] = float64(src.nextBatchNs-waitNs) / float64(src.events)
	}
	out["event.input_wait_ms"] = millis(waitNs)
	if src.batches > 0 {
		out["event.events_per_batch"] = float64(src.events) / float64(src.batches)
		out["event.ticks_per_batch"] = float64(src.ticks) / float64(src.batches)
	}
	out["event.reclaimed_chunks"] = float64(st.ReclaimedChunks)

	for _, stage := range tracedStages {
		h := r.stages.StageSnapshot(stage)
		name := "runtime." + stage.String()
		out[name+"_p50_us"] = micros(h.Quantile(0.50))
		out[name+"_p99_us"] = micros(h.Quantile(0.99))
		out[name+"_total_ms"] = millis(h.Sum)
	}

	snap := r.reg.Snapshot()
	out["runtime.router_stall_ms"] = millis(sumGauge(snap, "caesar_shard_router_stall_ns"))
	out["runtime.shard_stall_ms"] = millis(sumGauge(snap, "caesar_shard_stall_ns"))

	out["runtime.ticks"] = float64(st.Ticks)
	out["runtime.partitions"] = float64(st.Partitions)
	out["runtime.transitions"] = float64(st.Transitions)
	out["runtime.instance_execs"] = float64(st.InstanceExecs)
	out["runtime.suspended_skips"] = float64(st.SuspendedSkips)
	out["runtime.suspended_frac"] = ratio(st.SuspendedSkips, st.SuspendedSkips+st.InstanceExecs)
	out["runtime.events_fed"] = float64(st.EventsFed)
	out["runtime.txn_p50_us"] = micros(int64(st.TxnP50))
	out["runtime.txn_p99_us"] = micros(int64(st.TxnP99))

	matches := sumGauge(snap, "caesar_query_matches_total")
	filtered := sumGauge(snap, "caesar_query_filtered_total")
	negated := sumGauge(snap, "caesar_query_negated_total")
	out["algebra.matches"] = float64(matches)
	out["algebra.filtered"] = float64(filtered)
	out["algebra.negated"] = float64(negated)
	out["algebra.match_frac"] = ratio(uint64(matches), uint64(matches+filtered+negated))
	out["runtime.derived_arena_chunks"] = float64(sumGauge(snap, "caesar_derived_arena_chunks"))
	return out
}

// durabilityMetrics derives the durability layer of a traced durable
// run r and of the traced resume run rr that followed it.
func durabilityMetrics(r, rr *result) map[string]float64 {
	out := map[string]float64{}
	snap := r.reg.Snapshot()
	out["durability.wal_frames"] = float64(sumGauge(snap, "caesar_wal_frames_total"))
	out["durability.wal_syncs"] = float64(sumGauge(snap, "caesar_wal_syncs_total"))
	fsync := histogram(snap, "caesar_wal_fsync_ns")
	out["durability.fsync_p50_us"] = micros(fsync["p50"])
	out["durability.fsync_p99_us"] = micros(fsync["p99"])
	out["durability.checkpoints"] = float64(sumGauge(snap, "caesar_checkpoint_total"))
	ckpt := histogram(snap, "caesar_checkpoint_write_ns")
	out["durability.checkpoint_p50_ms"] = millis(ckpt["p50"])
	out["durability.checkpoint_max_ms"] = millis(ckpt["max"])
	out["durability.checkpoint_bytes"] = float64(sumGauge(snap, "caesar_checkpoint_bytes"))
	// Recovery ends before the decode stage starts, so the resume
	// run's first read of live input marks its end.
	out["durability.recovery_ms"] = millis(rr.startupNs)
	rs := rr.reg.Snapshot()
	out["durability.replayed_ticks"] = float64(sumGauge(rs, "caesar_wal_replayed_ticks_total"))
	out["durability.duplicate_ticks"] = float64(sumGauge(rs, "caesar_wal_duplicate_ticks_total"))
	return out
}

// addHarness adds the harness metrics of a paced run that sampled
// latency: its latency sample count and how late the generator began
// writing each tick.
func addHarness(s samples, r *result) {
	s.add("output.sink_outputs", float64(len(r.latNs)))
	p50, _ := percentile(r.lagNs, 0.50)
	p99, _ := percentile(r.lagNs, 0.99)
	s.add("gen.lag_p50_ms", millis(p50))
	s.add("gen.lag_p99_ms", millis(p99))
}

// sumGauge sums a counter or gauge family over its label sets in a
// registry snapshot.
func sumGauge(snap map[string]any, family string) int64 {
	var total int64
	for name, v := range snap {
		if name != family && !strings.HasPrefix(name, family+"{") {
			continue
		}
		switch x := v.(type) {
		case uint64:
			total += int64(x)
		case int64:
			total += x
		}
	}
	return total
}

// histogram returns an unlabelled histogram's summary from a registry
// snapshot (count, sum, max, mean, p50, p95, p99 in its unit).
func histogram(snap map[string]any, name string) map[string]int64 {
	h, _ := snap[name].(map[string]int64)
	return h
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
