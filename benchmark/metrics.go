package main

import (
	"math"

	"esds/internal/core"
	"esds/internal/stats"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the service sees. Every workload
// reports every one of them (README.md says what each means on each).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "ops/s", higher, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"lat_nonstrict_p50_ms", "ms", lower, 0.25},
	{"lat_nonstrict_p90_ms", "ms", lower, 0.25},
	{"lat_strict_p50_ms", "ms", lower, 0.25},
	{"lat_strict_p90_ms", "ms", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.15},
}

// perLayer are the traced run's metrics, one group per layer of the
// operation path. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "transport.send_us.request", Unit: "us", Better: lower},
	{Name: "transport.send_us.response", Unit: "us", Better: lower},
	{Name: "transport.send_us.gossip", Unit: "us", Better: lower},
	{Name: "transport.transit_us.request", Unit: "us", Better: lower},
	{Name: "transport.transit_us.response", Unit: "us", Better: lower},
	{Name: "transport.frames_per_op", Unit: "count", Better: lower},
	{Name: "transport.bytes_per_frame", Unit: "B", Better: lower},
	{Name: "transport.frames_per_flush", Unit: "count", Better: higher},
	{Name: "transport.wire_bytes_per_op", Unit: "B", Better: lower},
	{Name: "transport.dropped", Unit: "count", Better: lower},

	{Name: "core.frontend.submit_us", Unit: "us", Better: lower},
	{Name: "core.frontend.batch_wait_us", Unit: "us", Better: lower},
	{Name: "core.frontend.ops_per_request_frame", Unit: "count", Better: higher},
	{Name: "core.frontend.handle_us", Unit: "us", Better: lower},
	{Name: "core.frontend.retransmits_per_kop", Unit: "count", Better: lower},

	{Name: "core.replica.handle_us.request", Unit: "us", Better: lower},
	{Name: "core.replica.handle_us.gossip", Unit: "us", Better: lower},
	{Name: "core.replica.handle_self_us", Unit: "us", Better: lower},
	{Name: "core.replica.hold_us", Unit: "us", Better: lower},
	{Name: "core.replica.busy_frac", Unit: "ratio", Better: lower},
	{Name: "core.replica.applies_response_per_op", Unit: "count", Better: lower},
	{Name: "core.replica.applies_memo_per_op", Unit: "count", Better: lower},
	{Name: "core.replica.applies_current_per_op", Unit: "count", Better: lower},
	{Name: "core.replica.unstable_suffix_p50", Unit: "count", Better: lower},
	{Name: "core.replica.unstable_suffix_max", Unit: "count", Better: lower},
	{Name: "core.replica.responses_per_frame", Unit: "count", Better: higher},
	{Name: "core.replica.gossip_msgs_per_op", Unit: "count", Better: lower},
	{Name: "core.replica.gossip_suppressed_frac", Unit: "ratio", Better: higher},
	{Name: "core.replica.retained_ops_end", Unit: "count", Better: lower},
	{Name: "core.replica.unstable_suffix_max_at_knee", Unit: "count", Better: lower},
	{Name: "core.converge_ms", Unit: "ms", Better: lower},
	{Name: "capacity.max_rate_ok_ops_s", Unit: "ops/s", Better: higher},

	{Name: "core.runtime.run_len", Unit: "count", Better: higher},
	{Name: "core.runtime.enqueue_us", Unit: "us", Better: lower},
	{Name: "core.ksclient.submit_us", Unit: "us", Better: lower},
	{Name: "ring.shardof_ns", Unit: "ns", Better: lower},

	{Name: "core.store.persist_us", Unit: "us", Better: lower},
	{Name: "core.store.commit_wait_p50_us", Unit: "us", Better: lower},
	{Name: "core.store.commit_wait_p99_us", Unit: "us", Better: lower},
	{Name: "core.store.records_per_sync", Unit: "count", Better: higher},
	{Name: "core.store.journal_bytes_per_op", Unit: "B", Better: lower},

	{Name: "core.gossipcodec.compact_frac", Unit: "ratio", Better: higher},
	{Name: "core.gossipcodec.fallbacks", Unit: "count", Better: lower},
	{Name: "core.gossipcodec.rejects", Unit: "count", Better: lower},

	{Name: "dtype.apply_us", Unit: "us", Better: lower},
	{Name: "dtype.applies_per_op", Unit: "count", Better: lower},
	{Name: "dtype.apply_cpu_frac", Unit: "ratio", Better: lower},
	{Name: "dtype.keyed_apply_ns", Unit: "ns", Better: lower},

	{Name: "label.next_ns", Unit: "ns", Better: lower},
	{Name: "label.setmin_ns", Unit: "ns", Better: lower},
	{Name: "label.compare_ns", Unit: "ns", Better: lower},
	{Name: "ops.new_ns", Unit: "ns", Better: lower},

	{Name: "proc.allocs_per_op", Unit: "count", Better: lower},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "bench.lat_nonstrict_p99_ms", Unit: "ms", Better: lower},
	{Name: "bench.lat_strict_p99_ms", Unit: "ms", Better: lower},
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: lower},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "bench.unattributed_frac", Unit: "ratio", Better: lower},
	{Name: "bench.fail_frac", Unit: "ratio", Better: lower},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// withUnits attaches each metric's unit; a metric missing from values is a
// programming error the smoke test catches.
func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return out
}

// overReps applies f to every repetition and returns the raw values.
func overReps(reps []*repStats, f func(*repStats) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// endToEndRaw returns each repetition's value of the per-repetition
// end-to-end metrics.
func endToEndRaw(reps []*repStats) map[string][]float64 {
	return map[string][]float64{
		"setup_s":              overReps(reps, func(r *repStats) float64 { return r.setupS }),
		"ops_per_s":            overReps(reps, (*repStats).opsPerS),
		"cpu_us_per_op":        overReps(reps, (*repStats).cpuUsPerOp),
		"lat_nonstrict_p50_ms": overReps(reps, func(r *repStats) float64 { return r.nonstrict.ms(0.50) }),
		"lat_nonstrict_p90_ms": overReps(reps, func(r *repStats) float64 { return r.nonstrict.ms(0.90) }),
		"lat_strict_p50_ms":    overReps(reps, func(r *repStats) float64 { return r.strict.ms(0.50) }),
		"lat_strict_p90_ms":    overReps(reps, func(r *repStats) float64 { return r.strict.ms(0.90) }),
	}
}

// layerInput is what the traced run hands to layerMetrics.
type layerInput struct {
	traced   []*repStats // repetitions (or the reference step) with wrappers on
	untraced []*repStats // the same with wrappers off: overhead base, allocation counts
	knee     *repStats   // open loop: the first ladder step
	probes   map[string]float64
	openLoop bool
}

// layerMetrics computes every per-layer metric from the traced repetitions.
// Costs (…_us, …_ns) are means, so cost × count is a total; waits that have
// a distribution worth reading carry their percentile in the name.
func layerMetrics(in layerInput) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	for k, v := range in.probes {
		m[k] = v
	}

	var (
		ops, window, cpuNs               float64
		attempted, failed                float64
		sent, bytes, flushes, dropped    float64
		before, after                    core.ReplicaMetrics
		syncs, records, journal          float64
		busy                             = map[string]float64{}
		suffix, converge, retained       []float64
		unattributed                     []float64
		sampledOps, completeOps, resends float64
		frames, elems                    [numKinds]float64
		compact                          float64
	)
	send, handle := newHists(numKinds), newHists(numKinds)
	enqueue, persist, commit, apply, late := stats.NewHist(), stats.NewHist(), stats.NewHist(), stats.NewHist(), stats.NewHist()
	spanSum := map[string]float64{}
	for _, r := range in.traced {
		ops += float64(r.acked)
		attempted += float64(r.attempted)
		failed += float64(r.failed)
		window += float64(r.window)
		cpuNs += float64(r.after.cpu - r.before.cpu)
		sent += float64(r.after.net.Sent - r.before.net.Sent)
		bytes += float64(r.after.net.Bytes - r.before.net.Bytes)
		flushes += float64(r.after.net.Flushes - r.before.net.Flushes)
		dropped += float64(r.after.net.Dropped - r.before.net.Dropped)
		before.Add(r.before.replica)
		after.Add(r.after.replica)
		syncs += float64(r.after.syncs - r.before.syncs)
		records += float64(r.after.records - r.before.records)
		journal += float64(r.after.journal - r.before.journal)
		suffix = append(suffix, r.suffix...)
		converge = append(converge, r.audit.convergeMs)
		retained = append(retained, float64(r.retained))
		if r.late != nil {
			late.Merge(r.late)
		}
		t := r.tr
		t.mu.Lock()
		for k := 0; k < numKinds; k++ {
			send[k].Merge(t.send[k])
			handle[k].Merge(t.handle[k])
			frames[k] += float64(t.frames[k])
			elems[k] += float64(t.elems[k])
		}
		compact += float64(t.compactFrames)
		enqueue.Merge(t.enqueue)
		persist.Merge(t.persist)
		commit.Merge(t.commit)
		apply.Merge(t.apply)
		for node, ns := range t.busy {
			if isReplicaNode(node) {
				busy[string(node)] += float64(ns)
			}
		}
		t.mu.Unlock()
		l := r.ledger
		unattributed = append(unattributed, l.unattributed...)
		sampledOps += float64(l.sampledOps)
		completeOps += float64(len(l.unattributed))
		resends += float64(l.resends)
		for name, h := range l.self {
			spanSum[name] += histTotal(h)
		}
	}
	// perOpUs is a span's mean self time per sampled operation, counting an
	// operation the span did not occur on as zero.
	perOpUs := func(name string) float64 { return ratio(spanSum[name], completeOps) / 1e3 }
	delta := func(f func(core.ReplicaMetrics) uint64) float64 { return float64(f(after) - f(before)) }

	m["transport.send_us.request"] = send[kindRequest].Mean() / 1e3
	m["transport.send_us.response"] = send[kindResponse].Mean() / 1e3
	m["transport.send_us.gossip"] = send[kindGossip].Mean() / 1e3
	m["transport.transit_us.request"] = perOpUs(spanTransitReq)
	m["transport.transit_us.response"] = perOpUs(spanTransitResp)
	m["transport.frames_per_op"] = ratio(sent, ops)
	m["transport.bytes_per_frame"] = ratio(bytes, sent)
	m["transport.frames_per_flush"] = ratio(sent, flushes)
	m["transport.wire_bytes_per_op"] = ratio(bytes, ops)
	m["transport.dropped"] = dropped

	m["core.frontend.submit_us"] = perOpUs(spanSubmit)
	m["core.frontend.batch_wait_us"] = perOpUs(spanBatchWait)
	m["core.frontend.ops_per_request_frame"] = ratio(elems[kindRequest], frames[kindRequest])
	m["core.frontend.handle_us"] = handle[kindResponse].Mean() / 1e3
	m["core.frontend.retransmits_per_kop"] = 1000 * ratio(resends, sampledOps)

	m["core.replica.handle_us.request"] = handle[kindRequest].Mean() / 1e3
	m["core.replica.handle_us.gossip"] = handle[kindGossip].Mean() / 1e3
	// Replicas handle everything but responses; the dtype and store calls
	// carry no operation id, so they come off the handlers' time in aggregate.
	var replicaNs, replicaCnt float64
	for _, k := range []int{kindRequest, kindGossip, kindOther} {
		replicaNs += histTotal(handle[k])
		replicaCnt += float64(handle[k].Count())
	}
	applyNs := histTotal(apply)
	m["core.replica.handle_self_us"] = math.Max(0, ratio(replicaNs-applyNs-histTotal(persist)-histTotal(commit), replicaCnt)/1e3)
	m["core.replica.hold_us"] = perOpUs(spanHold)
	for _, ns := range busy {
		m["core.replica.busy_frac"] = math.Max(m["core.replica.busy_frac"], ratio(ns, window))
	}
	m["core.replica.applies_response_per_op"] = ratio(delta(func(c core.ReplicaMetrics) uint64 { return c.AppliesForResponse }), ops)
	m["core.replica.applies_memo_per_op"] = ratio(delta(func(c core.ReplicaMetrics) uint64 { return c.AppliesForMemoize }), ops)
	m["core.replica.applies_current_per_op"] = ratio(delta(func(c core.ReplicaMetrics) uint64 { return c.AppliesForCurrentState }), ops)
	m["core.replica.unstable_suffix_p50"] = median(suffix)
	m["core.replica.unstable_suffix_max"] = maxOf(suffix)
	m["core.replica.responses_per_frame"] = ratio(elems[kindResponse], frames[kindResponse])
	gossipSent := delta(func(c core.ReplicaMetrics) uint64 { return c.GossipSent })
	suppressed := delta(func(c core.ReplicaMetrics) uint64 { return c.GossipSuppressed })
	m["core.replica.gossip_msgs_per_op"] = ratio(gossipSent, ops)
	m["core.replica.gossip_suppressed_frac"] = ratio(suppressed, gossipSent+suppressed)
	m["core.replica.retained_ops_end"] = median(retained)
	m["core.converge_ms"] = median(converge)
	if in.knee != nil {
		m["core.replica.unstable_suffix_max_at_knee"] = maxOf(in.knee.suffix)
	}

	m["core.runtime.run_len"] = ratio(delta(func(c core.ReplicaMetrics) uint64 { return c.RequestsReceived + c.GossipReceived }),
		delta(func(c core.ReplicaMetrics) uint64 { return c.PipelineRuns }))
	m["core.runtime.enqueue_us"] = enqueue.Mean() / 1e3
	m["core.ksclient.submit_us"] = perOpUs(spanKsSubmit)

	m["core.store.persist_us"] = persist.Mean() / 1e3
	m["core.store.commit_wait_p50_us"] = float64(commit.Quantile(0.50)) / 1e3
	m["core.store.commit_wait_p99_us"] = float64(commit.Quantile(0.99)) / 1e3
	m["core.store.records_per_sync"] = ratio(records, syncs)
	m["core.store.journal_bytes_per_op"] = ratio(journal, ops)

	m["core.gossipcodec.compact_frac"] = ratio(compact, frames[kindGossip])
	m["core.gossipcodec.fallbacks"] = delta(func(c core.ReplicaMetrics) uint64 { return c.CompactGossipFallbacks })
	m["core.gossipcodec.rejects"] = delta(func(c core.ReplicaMetrics) uint64 { return c.CompactGossipRejects })

	m["dtype.apply_us"] = apply.Mean() / 1e3
	m["dtype.applies_per_op"] = ratio(float64(apply.Count()), ops)
	m["dtype.apply_cpu_frac"] = ratio(applyNs, cpuNs)

	var uOps, uAllocs, uBytes, uPause float64
	for _, r := range in.untraced {
		uOps += float64(r.acked)
		uAllocs += float64(r.after.mem.Mallocs - r.before.mem.Mallocs)
		uBytes += float64(r.after.mem.TotalAlloc - r.before.mem.TotalAlloc)
		uPause += float64(r.after.mem.PauseTotalNs - r.before.mem.PauseTotalNs)
	}
	m["proc.allocs_per_op"] = ratio(uAllocs, uOps)
	m["proc.alloc_bytes_per_op"] = ratio(uBytes, uOps)
	m["proc.gc_pause_ms"] = ratio(uPause/1e6, float64(len(in.untraced)))
	// The tail beyond p90 is too jumpy to carry a bound (one 50 ms stall in a
	// 5 s window is 1% of an open loop's samples); it is reported here, from
	// the untraced repetitions' pooled samples.
	m["bench.lat_nonstrict_p99_ms"] = mergedLatencies(in.untraced, false).ms(0.99)
	m["bench.lat_strict_p99_ms"] = mergedLatencies(in.untraced, true).ms(0.99)
	m["bench.gen_late_p99_ms"] = histMs(late, 0.99)
	// Tracing overhead: lost throughput on a closed loop; on the open loop
	// the rate is fixed, so it is the extra CPU per operation instead.
	if in.openLoop {
		m["bench.trace_overhead_frac"] = 1 - ratio(median(overReps(in.untraced, (*repStats).cpuUsPerOp)), median(overReps(in.traced, (*repStats).cpuUsPerOp)))
	} else {
		m["bench.trace_overhead_frac"] = 1 - ratio(median(overReps(in.traced, (*repStats).opsPerS)), median(overReps(in.untraced, (*repStats).opsPerS)))
	}
	m["bench.unattributed_frac"] = median(unattributed)
	m["bench.fail_frac"] = ratio(failed, attempted)
	return m
}

func newHists(n int) []*stats.Hist {
	out := make([]*stats.Hist, n)
	for i := range out {
		out[i] = stats.NewHist()
	}
	return out
}
