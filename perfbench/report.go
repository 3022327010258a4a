package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the user-visible metrics every workload reports with
// tracing off. A frame is one unit of work a client waits for: on the
// closed-loop workloads it is due when the previous one was delivered,
// on the open-loop fleet it is due on the nominal tick schedule.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"frame_ms_p50", "ms"},
	{"frame_ms_p95", "ms"},
	{"obj_ticks_per_s", "1/s"},
	{"wake_ms_p50", "ms"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. A layer
// a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"parser.parse_ms", "ms"},
	{"sem.analyze_ms", "ms"},
	{"compile.compile_ms", "ms"},
	{"engine.compile_ms", "ms"},
	{"core.populate_ms", "ms"},
	{"views.subscribe_ms", "ms"},
	{"server.add_world_ms", "ms"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"engine.tick_ms", "ms"},
	{"engine.tick_self_ms", "ms"},
	{"engine.vector_rows", "count"},
	{"engine.scalar_rows", "count"},
	{"engine.vector_fraction", "ratio"},
	{"engine.parallel_shards", "count"},
	{"engine.handler_rows", "count"},
	{"engine.allocs_per_tick", "count"},
	{"index.build_ms", "ms"},
	{"index.reuse_ratio", "ratio"},
	{"join.probe_rows", "count"},
	{"join.match_rows", "count"},
	{"join.match_per_probe", "ratio"},
	{"join.batched_share", "ratio"},
	{"vexpr.fused_ops", "count"},
	{"vexpr.dict_lookups", "count"},
	{"physics.update_ms", "ms"},
	{"txn.admit_ms", "ms"},
	{"txn.commit_ratio", "ratio"},
	{"txn.commits_per_s", "1/s"},
	{"txn.batched_rows", "count"},
	{"txn.parallel_groups", "count"},
	{"txn.cross_part_share", "ratio"},
	{"partition.msgs_per_tick", "count"},
	{"partition.bytes_per_tick", "B"},
	{"partition.ghost_rows", "count"},
	{"partition.imbalance", "ratio"},
	{"partition.rebalance_ms", "ms"},
	{"views.apply_ms", "ms"},
	{"views.delta_rows", "count"},
	{"views.delta_bytes", "B"},
	{"views.rescan_share", "ratio"},
	{"server.service_ms_p50", "ms"},
	{"server.wait_ms_p50", "ms"},
	{"server.wait_ms_p99", "ms"},
	{"server.late_ms_p99", "ms"},
	{"server.busy_share", "ratio"},
	{"server.lag_ms", "ms"},
	{"server.deadline_miss_ratio", "ratio"},
	{"server.hibernate_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.span_coverage", "ratio"},
}

// check is one output check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is what a workload run hands back to main.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	checks    []check
	samples   map[string]int
	notes     map[string]any
}

func newReport() *report {
	return &report{
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		samples: map[string]int{},
		notes:   map[string]any{},
	}
}

// check records an output check. A failed check is a failed operation.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	c := check{Name: name, OK: ok}
	if !ok {
		r.failed++
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

// op counts an attempted operation and its error, if any.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.notes["last_error"] = err.Error()
	}
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// frameMetrics reports the frame percentiles over frames (due → delivered)
// and stamps their sample count; the tail is p95, which needs at least
// minTail samples beyond it.
func (r *report) frameMetrics(frames []time.Duration) error {
	s := msSorted(frames)
	if beyond(len(s), 95) < minTail {
		return fmt.Errorf("only %d frames: p95 needs %d samples beyond it", len(s), minTail)
	}
	r.e2e["frame_ms_p50"] = percentile(s, 50)
	r.e2e["frame_ms_p95"] = percentile(s, 95)
	r.samples["frames"] = len(s)
	r.notes["frame_tail_percentile_available"] = tailPercentile(len(s))
	return nil
}

// setupMetrics reports the median set-up time and, per setup span, the
// median of its per-setup totals.
func (r *report) setupMetrics(setups []time.Duration, spans []map[string]int64) {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	r.e2e["setup_s"] = median(secs)
	r.samples["setups"] = len(setups)
	for _, name := range []string{"parser.parse", "sem.analyze", "compile.compile",
		"engine.compile", "core.populate", "views.subscribe", "server.add_world"} {
		vals := make([]float64, len(spans))
		for i, m := range spans {
			vals[i] = float64(m[name]) / 1e6
		}
		r.layer[name+"_ms"] = median(vals)
	}
}

// wakeMetric reports the median wake wall time.
func (r *report) wakeMetric(wakes []time.Duration) {
	r.e2e["wake_ms_p50"] = percentile(msSorted(wakes), 50)
	r.samples["wakes"] = len(wakes)
}

// execLayers derives the per-tick layer counts from a window's counter
// delta. siteTicks is accum sites × ticks (the base of the index reuse
// ratio), parts the partition count.
func (r *report) execLayers(d stats.ExecCounters, ticks, siteTicks int64, parts int) {
	t := float64(ticks)
	per := func(v int64) float64 { return ratio(float64(v), t) }
	r.layer["engine.vector_rows"] = per(d.VectorRows)
	r.layer["engine.scalar_rows"] = per(d.ScalarRows)
	r.layer["engine.vector_fraction"] = d.VectorFraction()
	r.layer["engine.parallel_shards"] = per(d.ParallelShards)
	r.layer["engine.handler_rows"] = per(d.HandlerRows)
	r.layer["index.build_ms"] = per(d.IndexBuildNanos) / 1e6
	r.layer["index.reuse_ratio"] = ratio(float64(d.IndexReuses), float64(siteTicks))
	r.layer["join.probe_rows"] = per(d.JoinProbeRows)
	r.layer["join.match_rows"] = per(d.JoinMatchRows)
	r.layer["join.match_per_probe"] = ratio(float64(d.JoinMatchRows), float64(d.JoinProbeRows))
	// The batched path counts candidates, the scalar path delivered rows;
	// batched candidates at least as many as all delivered rows means the
	// batched path handled every probe.
	r.layer["join.batched_share"] = math.Min(1, ratio(float64(d.JoinBatchedRows), float64(d.JoinMatchRows)))
	r.layer["vexpr.fused_ops"] = float64(d.FusedOps)
	r.layer["vexpr.dict_lookups"] = per(d.DictLookups)
	r.layer["txn.batched_rows"] = per(d.TxnBatchedRows)
	r.layer["txn.parallel_groups"] = per(d.TxnParallelGroups)
	r.layer["partition.msgs_per_tick"] = per(d.PartMessages())
	r.layer["partition.bytes_per_tick"] = per(d.PartBytes)
	r.layer["partition.ghost_rows"] = per(d.GhostRows)
	r.layer["partition.imbalance"] = d.PartImbalance(parts)
	r.layer["partition.rebalance_ms"] = per(d.RebalanceNanos) / 1e6
	r.layer["views.delta_rows"] = per(d.ViewDeltaRows)
	r.layer["views.rescan_share"] = ratio(float64(d.ViewRescans), float64(d.ViewSubs)*t)
}

// txnLayers derives the admission outcome ratios from the policy tallies
// (window deltas) and the window's cross-partition count.
func (r *report) txnLayers(submitted, committed, crossPart int64, secs float64) {
	r.layer["txn.commit_ratio"] = ratio(float64(committed), float64(submitted))
	r.layer["txn.commits_per_s"] = ratio(float64(committed), secs)
	r.layer["txn.cross_part_share"] = ratio(float64(crossPart), float64(submitted))
}

// runtimeLayers reports the collector's work inside the window.
func (r *report) runtimeLayers(w *window) {
	r.layer["runtime.gc_cycles"] = w.gcCycles()
	r.layer["runtime.gc_pause_ms"] = w.gcPauseMs()
}

// sortedKeys lists a map's keys in order (deterministic output).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
