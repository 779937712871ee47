// Benchmarks regenerating the paper's evaluation: one benchmark per
// experiment row of DESIGN.md §3 (E1–E9 on the deterministic simulator,
// E10 on the live transport), plus microbenchmarks of the core algorithm.
// Each experiment benchmark runs the full experiment per iteration and
// reports the headline metric with ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces every table and figure, and `make bench` captures the metrics
// into a BENCH_results.json artifact.
package esds_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/exp"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

func benchE1Params() exp.E1Params {
	p := exp.DefaultE1Params()
	p.MaxReplicas = 6
	p.RunFor = 500 * sim.Millisecond
	return p
}

// BenchmarkE1ThroughputVsReplicas regenerates the §11.1 scalability figure.
func BenchmarkE1ThroughputVsReplicas(b *testing.B) {
	var r exp.E1Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE1(benchE1Params())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Fit.Slope, "resp/s/replica")
	b.ReportMetric(r.Fit.R2, "R2")
}

func benchE2Params() exp.E2Params {
	p := exp.DefaultE2Params()
	p.StepPct = 20
	p.RunFor = 500 * sim.Millisecond
	return p
}

// BenchmarkE2LatencyVsStrictPct regenerates the §11.1 strictness figure.
func BenchmarkE2LatencyVsStrictPct(b *testing.B) {
	var r exp.E2Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE2(benchE2Params())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Fit.Slope*100, "ms/100pct")
	b.ReportMetric(r.Fit.R2, "R2")
}

// BenchmarkE3ResponseTimeBounds regenerates the Theorem 9.3 table.
func BenchmarkE3ResponseTimeBounds(b *testing.B) {
	var r exp.E3Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE3(exp.DefaultE3Params())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Rows[2].MaxMs, "strict-max-ms")
	b.ReportMetric(r.Rows[2].BoundMs, "strict-bound-ms")
}

// BenchmarkE4StabilizationBound regenerates the Lemma 9.2 table.
func BenchmarkE4StabilizationBound(b *testing.B) {
	var r exp.E4Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE4(exp.DefaultE4Params())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxMs, "max-ms")
	b.ReportMetric(r.BoundMs, "bound-ms")
}

// BenchmarkE5FaultRecovery regenerates the Theorem 9.4 table.
func BenchmarkE5FaultRecovery(b *testing.B) {
	var r exp.E5Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE5(exp.DefaultE5Params())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.MaxAfterHealMs, "recovery-ms")
}

func benchAblationParams() exp.AblationParams {
	p := exp.DefaultAblationParams()
	p.Ops = 150
	return p
}

// BenchmarkE6MemoizationAblation regenerates the §10.1 table.
func BenchmarkE6MemoizationAblation(b *testing.B) {
	var r exp.E6Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE6(benchAblationParams())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Base.Metrics.AppliesForResponse), "applies-base")
	b.ReportMetric(float64(r.Memo.Metrics.AppliesForResponse), "applies-memo")
}

// BenchmarkE7CommuteAblation regenerates the §10.3 table.
func BenchmarkE7CommuteAblation(b *testing.B) {
	var r exp.E7Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE7(benchAblationParams())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Base.Metrics.AppliesForResponse), "applies-base")
	b.ReportMetric(float64(r.Commute.Metrics.AppliesForCurrentState), "applies-cs")
}

// BenchmarkE8GossipAblation regenerates the §10.4 table.
func BenchmarkE8GossipAblation(b *testing.B) {
	var r exp.E8Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE8(benchAblationParams())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Full.NetBytes), "bytes-full")
	b.ReportMetric(float64(r.Incr.NetBytes), "bytes-incr")
}

func benchE9Params() exp.E9Params {
	p := exp.DefaultE9Params()
	p.RunFor = 500 * sim.Millisecond
	return p
}

// BenchmarkE9Baselines regenerates the baseline-comparison table.
func BenchmarkE9Baselines(b *testing.B) {
	var r exp.E9Result
	for i := 0; i < b.N; i++ {
		r = exp.RunE9(benchE9Params())
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Rows[0].MeanLatency, "causal-ms")
	b.ReportMetric(r.Rows[1].MeanLatency, "strict-ms")
	b.ReportMetric(r.Rows[3].MeanLatency, "central-ms")
}

// BenchmarkE10ShardedThroughput runs the sharded-keyspace experiment: the
// same multi-object workload against 1, 2, and 4 shards, reporting the
// aggregate speedup of the largest keyspace over the single-cluster
// baseline. The speedup is reported rather than asserted here (wall-clock
// scaling is machine-dependent; `esds-bench -exp e10` runs the gated
// version with the ≥2× requirement).
func BenchmarkE10ShardedThroughput(b *testing.B) {
	p := exp.DefaultShardedParams()
	p.MinSpeedup = 0
	var r exp.ShardedResult
	for i := 0; i < b.N; i++ {
		r = exp.RunSharded(p)
		if err := r.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Speedup, "speedup")
	b.ReportMetric(r.Rows[0].Throughput, "ops/s-baseline")
	b.ReportMetric(r.Rows[len(r.Rows)-1].Throughput, "ops/s-sharded")
	b.ReportMetric(r.Rows[len(r.Rows)-1].P50Ms, "p50-ms")
	b.ReportMetric(r.Rows[len(r.Rows)-1].P99Ms, "p99-ms")
}

// BenchmarkE12BatchedHotPath runs the batched-hot-path experiment: the
// same pipelined increment workload over real loopback TCP sockets, swept
// across (batch size, flush delay) points against the unbatched baseline.
// The speedup is reported, never asserted (wall-clock scaling is
// machine-dependent; `esds-bench -exp e12` runs the gated version, whose
// gate is the ≥10× frames/op cut). Bytes/op are real frame bytes and are
// structural.
func BenchmarkE12BatchedHotPath(b *testing.B) {
	p := exp.DefaultBatchingParams()
	p.MinFrameCut = 0
	var r exp.BatchingResult
	for i := 0; i < b.N; i++ {
		r = exp.RunBatching(p)
		if err := r.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
	base, best := r.Rows[0], r.Rows[0]
	for _, row := range r.Rows[1:] {
		if row.Throughput > best.Throughput {
			best = row
		}
	}
	b.ReportMetric(r.Speedup, "speedup")
	b.ReportMetric(base.Throughput, "ops/s-unbatched")
	b.ReportMetric(best.Throughput, "ops/s-batched")
	b.ReportMetric(base.BytesPerOp, "bytes/op-unbatched")
	b.ReportMetric(best.BytesPerOp, "bytes/op-batched")
	b.ReportMetric(best.P50Ms, "p50-ms")
	b.ReportMetric(best.P99Ms, "p99-ms")
}

// BenchmarkE13CoreScaling runs the shard-per-core runtime experiment: the
// same multi-object increment workload against a fixed 4-shard keyspace at
// 1, 2, and 4 cores, with worker pools sized to the core budget. The
// scaling ratio is reported rather than asserted here (it is bounded by
// the machine's physical cores; `esds-bench -exp e13` runs the gated
// version, whose ≥2× requirement arms only when NumCPU covers the sweep).
// The ratio's unit is deliberately "x-scaling", not "speedup": benchjson
// gates every throughput-shaped metric of a matched benchmark, and on a
// box with fewer cores than the sweep the ratio is scheduler noise — the
// NumCPU-aware experiment gate owns it, the artifact only tracks it.
func BenchmarkE13CoreScaling(b *testing.B) {
	p := exp.DefaultCoreScalingParams()
	p.MinScaling = 0
	var r exp.CoreScalingResult
	for i := 0; i < b.N; i++ {
		r = exp.RunCoreScaling(p)
		if err := r.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Scaling, "x-scaling")
	b.ReportMetric(r.Rows[0].Throughput, "ops/s-1core")
	b.ReportMetric(r.Rows[len(r.Rows)-1].Throughput, "ops/s-maxcores")
	b.ReportMetric(r.Rows[len(r.Rows)-1].P50Ms, "p50-ms")
	b.ReportMetric(r.Rows[len(r.Rows)-1].P99Ms, "p99-ms")
}

// BenchmarkE14DurableThroughput runs the durable group-commit experiment:
// the pipelined increment workload of E12, each sweep point measured over
// real FileStableStore journals both durable (one fsync per admission
// batch, ack-after-durable) and NoSync (page cache only, the
// pre-durability behavior). The durable/nosync ratio at the best batched
// point is the headline: how much of the batched hot path's throughput
// survives crash durability. The ratio is reported rather than asserted
// here (fsync latency is hardware-dependent; `esds-bench -exp e14` runs
// the gated version with the ≥0.5 ratio requirement). The x-ratio unit
// keeps benchjson's throughput gate off a hardware-bound quotient, like
// E13's x-scaling.
func BenchmarkE14DurableThroughput(b *testing.B) {
	p := exp.DefaultDurableParams()
	p.MinRatio = 0
	var r exp.DurableResult
	for i := 0; i < b.N; i++ {
		r = exp.RunDurable(p)
		if err := r.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
	best := r.Rows[len(r.Rows)-1] // the sweep ends on a batched point
	for _, row := range r.Rows {
		if row.BatchSize > 1 && row.Durable > best.Durable {
			best = row
		}
	}
	b.ReportMetric(best.Durable, "ops/s-durable")
	b.ReportMetric(best.NoSync, "ops/s-nosync")
	b.ReportMetric(best.Ratio, "x-ratio")
	b.ReportMetric(best.OpsPerSync, "records/sync")
	b.ReportMetric(best.P50Ms, "p50-ms")
	b.ReportMetric(best.P99Ms, "p99-ms")
}

// BenchmarkE15LoadLab tracks the open-loop latency tail per network
// profile at the highest swept rate. The p99 gate is disabled here (the
// gated run is `esds-bench -exp e15`; latency tails are too
// machine-dependent to floor in BENCH_results.json) — Verify still
// enforces the full audit: liveness, exact read-back, answered-in-order.
// Millisecond units are deliberately tracked-only, never gated.
func BenchmarkE15LoadLab(b *testing.B) {
	p := exp.DefaultLoadLabParams()
	p.MaxP99 = nil
	var r exp.LoadLabResult
	for i := 0; i < b.N; i++ {
		r = exp.RunLoadLab(p)
		if err := r.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
	maxRate := p.Rates[len(p.Rates)-1]
	for _, row := range r.Rows {
		if row.Rate != maxRate {
			continue
		}
		b.ReportMetric(row.P50Ms, "p50-ms-"+row.Profile)
		b.ReportMetric(row.P99Ms, "p99-ms-"+row.Profile)
	}
}

// BenchmarkE16StepLoad runs the step-load experiment: the open-loop
// generator stepped low → high → low against batch sizes 8, 32 and 128,
// with the compact gossip form measured against the identical
// legacy-encoded batch-128 run. The throughput and wire gates are disabled
// here (the gated run is `esds-bench -exp e16`); the bytes/op metrics ARE
// gated by benchjson — they are structural frame-layout quantities, and the
// committed baseline is a ceiling the delta encoding must stay under.
func BenchmarkE16StepLoad(b *testing.B) {
	p := exp.DefaultStepLoadParams()
	p.MinRatio, p.MinBytesDrop = 0, 0
	var r exp.StepLoadResult
	for i := 0; i < b.N; i++ {
		r = exp.RunStepLoad(p)
		if err := r.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
	highStep := 0
	for i, rate := range p.Rates {
		if rate > p.Rates[highStep] {
			highStep = i
		}
	}
	for _, row := range r.Rows {
		if row.Size == p.Size && !row.Legacy && row.Step == highStep {
			b.ReportMetric(row.OpsPerSec, fmt.Sprintf("ops/s-batch%d-high", p.Size))
			b.ReportMetric(row.P99Ms, fmt.Sprintf("p99-ms-batch%d-high", p.Size))
		}
	}
	compact, _ := r.BytesPerOp(p.Size, false)
	legacy, _ := r.BytesPerOp(p.Size, true)
	b.ReportMetric(compact, "bytes/op-compact")
	b.ReportMetric(legacy, "bytes/op-legacy")
	b.ReportMetric(1-compact/legacy, "wire-drop-frac")
}

// BenchmarkE17FleetPlacement runs the placement scaling experiment: the
// same 6-shard × 3-replica keyspace deployed on a 3-member fleet (full
// replication forced) and a 6-member fleet (each member hosts half the
// shards), same open-loop workload, strict read-back of every acknowledged
// op. The ≥40% drop gates stay ON — resident shards per member and
// per-member bytes/op are placement-geometry quantities, not machine
// speed, so the gate holds on any runner; benchjson additionally ceilings
// the bytes/op metrics against the committed baseline.
func BenchmarkE17FleetPlacement(b *testing.B) {
	p := exp.DefaultFleetParams()
	var r exp.FleetResult
	for i := 0; i < b.N; i++ {
		r = exp.RunFleet(p)
		if err := r.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	b.ReportMetric(first.BytesPerMemOp, "bytes/op-member-small")
	b.ReportMetric(last.BytesPerMemOp, "bytes/op-member-grown")
	b.ReportMetric(1-last.BytesPerMemOp/first.BytesPerMemOp, "wire-drop-frac")
	b.ReportMetric(first.ResidentMean, "resident-shards-small")
	b.ReportMetric(last.ResidentMean, "resident-shards-grown")
	b.ReportMetric(last.OpsPerSec, "ops/s-grown")
}

// --- Microbenchmarks of the core algorithm ---

// BenchmarkLabelGeneration measures label assignment (ℒ_r partition).
func BenchmarkLabelGeneration(b *testing.B) {
	g := label.NewGenerator(1)
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkLabelMapMergeMin measures the gossip label merge on a 1k-entry
// snapshot.
func BenchmarkLabelMapMergeMin(b *testing.B) {
	src := label.NewMap()
	for i := 0; i < 1000; i++ {
		src.SetMin(ops.ID{Client: "c", Seq: uint64(i)}, label.Make(uint64(i+1), 0))
	}
	snap := src.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := label.NewMap()
		dst.MergeMin(snap)
	}
}

// BenchmarkGossipRound measures one full-gossip round of a 3-replica
// cluster holding 500 operations.
func BenchmarkGossipRound(b *testing.B) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas: 3, DataType: dtype.Counter{}, Network: net,
		Options: core.Options{Memoize: true},
	})
	fe := cluster.FrontEnd("c")
	for i := 0; i < 500; i++ {
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	}
	s.Run(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.GossipAll()
		s.Run(0)
	}
}

// BenchmarkGossipMerge measures the receive side of incremental gossip
// against the history a replica holds (run with -benchmem): replica 0 of
// a three-replica cluster holds N operations done and stable everywhere
// (history-N), and each iteration merges one delta from replica 1 — 64 new
// descriptors with their labels, done at the sender, plus the previous
// delta's 64 operations now stable — and runs the internal actions,
// memoizing what became stable. The deltas grow the history, so it is
// rebuilt (timer stopped) whenever they have added a quarter of N: every
// iteration sees between N and 1.25N identifiers.
func BenchmarkGossipMerge(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("history-%dk", n/1000), func(b *testing.B) { benchGossipMerge(b, n) })
	}
}

func benchGossipMerge(b *testing.B, history int) {
	const delta = 64
	var (
		s        *sim.Sim
		net      *transport.SimNet
		to, from transport.NodeID
		seq      uint64
		deltas   []core.GossipMsg
	)
	// gossip is replica 1's message carrying k new operations, stable at
	// every replica or done at the sender only.
	gossip := func(k int, stable bool) core.GossipMsg {
		m := core.GossipMsg{From: 1, L: make([]core.IDLabel, 0, k)}
		for i := 0; i < k; i++ {
			seq++
			id := ops.ID{Client: "c", Seq: seq}
			m.R = append(m.R, ops.New(dtype.CtrAdd{N: 1}, id, nil, false))
			m.L = append(m.L, core.IDLabel{ID: id, Label: label.Make(seq, 1)})
			if stable {
				m.S = append(m.S, id)
			} else {
				m.D = append(m.D, id)
			}
		}
		return m
	}
	build := func() {
		s = sim.New(1)
		net = transport.NewSimNet(s, transport.SimNetConfig{})
		cluster := core.NewCluster(core.ClusterConfig{
			Replicas: 3, DataType: dtype.Counter{}, Network: net,
			Options: core.Options{Memoize: true},
		})
		to, from = cluster.Nodes()[0], cluster.Nodes()[1]
		seq = 0
		for held := 0; held < history; held += 1000 {
			net.Send(from, to, gossip(min(1000, history-held), true))
			s.Run(0)
		}
		deltas = make([]core.GossipMsg, history/delta/4+1)
		for i := range deltas {
			deltas[i] = gossip(delta, false)
			if i > 0 {
				deltas[i].S = deltas[i-1].D
			}
		}
	}
	build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(deltas) == 0 {
			b.StopTimer()
			build()
			b.StartTimer()
		}
		net.Send(from, to, deltas[i%len(deltas)])
		s.Run(0)
	}
}

// liveBenchCluster starts the 3-replica counter cluster the live submit
// benchmarks drive, wired as esds.New wires an unsharded service but
// running opt and a 1ms gossip period. It returns the "bench" client's
// front end and a function that stops the cluster.
func liveBenchCluster(opt core.Options) (*core.FrontEnd, func()) {
	net := transport.NewLiveNet()
	c := core.NewCluster(core.ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  opt,
	})
	c.StartLiveGossip(time.Millisecond)
	c.StartLiveRetransmit(core.RetransmitInterval)
	if opt.BatchSize > 1 {
		c.StartLiveBatchFlush(opt.FlushPeriod())
	}
	return c.FrontEnd("bench"), func() {
		c.Close()
		net.Close()
	}
}

// BenchmarkLiveSubmitNonStrict measures the end-to-end latency path of a
// non-strict operation on the live transport. The cluster is recreated
// every few thousand operations so the measurement reflects a bounded
// history (otherwise per-op gossip cost grows with b.N and the benchmark
// measures history length, not the submit path).
func BenchmarkLiveSubmitNonStrict(b *testing.B) {
	const historyCap = 4000
	fe, stop := liveBenchCluster(core.DefaultOptions())
	defer func() { stop() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%historyCap == 0 {
			b.StopTimer()
			stop()
			fe, stop = liveBenchCluster(core.DefaultOptions())
			b.StartTimer()
		}
		fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, false)
	}
}

// BenchmarkLivePipelinedSubmit measures the pipelined submission hot path
// on the live in-process transport, unbatched vs batched: b.N non-strict
// increments in flight up to a 128-deep window. Run with -benchmem — the
// allocation pass on the label-compare/memoize path and the per-frame
// savings of batching both show up here. The cluster is recreated every
// few thousand operations so the measurement reflects a bounded history.
func BenchmarkLivePipelinedSubmit(b *testing.B) {
	for _, batch := range []int{1, 32} {
		name := "unbatched"
		if batch > 1 {
			name = "batch-32"
		}
		b.Run(name, func(b *testing.B) {
			const historyCap = 4000
			opt := core.DefaultOptions()
			opt.BatchSize = batch
			opt.BatchDelay = time.Millisecond
			fe, stop := liveBenchCluster(opt)
			defer func() { stop() }()
			window := make(chan struct{}, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%historyCap == 0 {
					b.StopTimer()
					for len(window) > 0 { // drain before teardown
						time.Sleep(time.Millisecond)
					}
					stop()
					fe, stop = liveBenchCluster(opt)
					b.StartTimer()
				}
				window <- struct{}{}
				fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(core.Response) { <-window })
			}
			for len(window) > 0 {
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// BenchmarkValueComputation contrasts response-value computation with and
// without the memoized solid prefix at a 2000-op history, and on an
// unstable suffix that never stabilizes: a Directory replica with gossip
// stopped, where every response at the end of the local order is computed
// from the suffix — by Fig. 7's replay its cost grows with the history,
// from the suffix cache it is one apply.
func BenchmarkValueComputation(b *testing.B) {
	for _, memo := range []bool{false, true} {
		name := "memoized"
		if !memo {
			name = "recompute"
		}
		b.Run(name, func(b *testing.B) {
			s := sim.New(1)
			net := transport.NewSimNet(s, transport.SimNetConfig{})
			cluster := core.NewCluster(core.ClusterConfig{
				Replicas: 2, DataType: dtype.Counter{}, Network: net,
				Options: core.Options{Memoize: memo},
			})
			cluster.StartSimGossip(s, 5*sim.Millisecond)
			fe := cluster.FrontEnd("c")
			for i := 0; i < 2000; i++ {
				fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
			}
			s.RunFor(2 * sim.Second)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fe.Submit(dtype.CtrRead{}, nil, false, nil)
				s.RunFor(10 * sim.Millisecond)
			}
		})
	}
	b.Run("unstable-suffix", func(b *testing.B) {
		s := sim.New(1)
		net := transport.NewSimNet(s, transport.SimNetConfig{})
		cluster := core.NewCluster(core.ClusterConfig{
			Replicas: 2, DataType: dtype.Directory{}, Network: net,
			Options: core.DefaultOptions(),
		})
		fe := cluster.FrontEnd("c")
		fe.StickTo(core.ReplicaNode(0))
		ops := dirBenchCycle()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fe.Submit(ops[i%len(ops)], nil, false, nil)
			s.RunFor(sim.Millisecond)
		}
	})
}

// dirBenchCycle is a bind/setattr/getattr/lookup/unbind cycle over a
// 64-name directory: the name it binds is unbound again, so the state
// keeps its size however many times the cycle runs.
func dirBenchCycle() []dtype.Operator {
	return []dtype.Operator{
		dtype.DirBind{Name: "n99"},
		dtype.DirSetAttr{Name: "n99", Key: "k0", Val: "v"},
		dtype.DirGetAttr{Name: "n31", Key: "k2"},
		dtype.DirLookup{Name: "n42"},
		dtype.DirUnbind{Name: "n99"},
	}
}

// BenchmarkDataTypeApply measures the serial data types' transition
// functions: one operator applied to its own output from the initial
// state, except the directory, which cycles dirBenchCycle over 64 names
// with 4 attributes each (the benchmark workload's shape), and the keyed
// counters, which cycle an add over every one of 16, 256 or 4 096 existing
// objects (one keyspace shard's share at the benchmark workload's 1 024
// objects is 256). A write's cost should not grow with the object count.
func BenchmarkDataTypeApply(b *testing.B) {
	keyed := dtype.NewKeyed(dtype.Counter{})
	keyedAdds := func(objects int) []dtype.Operator {
		out := make([]dtype.Operator, objects)
		for i := range out {
			out[i] = dtype.KeyedOp{Key: fmt.Sprintf("s%02d/o%02d", i/16, i%16), Op: dtype.CtrAdd{N: 1}}
		}
		return out
	}
	keyedAt := func(ops []dtype.Operator) func() dtype.State {
		return func() dtype.State { return dtype.ApplyAll(keyed, keyed.Initial(), ops) }
	}
	k16, k256, k4096 := keyedAdds(16), keyedAdds(256), keyedAdds(4096)
	dir := func() dtype.State {
		var d dtype.Directory
		st := d.Initial()
		for i := 0; i < 64; i++ {
			name := fmt.Sprintf("n%02d", i)
			st, _ = d.Apply(st, dtype.DirBind{Name: name})
			for k := 0; k < 4; k++ {
				st, _ = d.Apply(st, dtype.DirSetAttr{Name: name, Key: fmt.Sprintf("k%d", k), Val: fmt.Sprintf("v%d", i)})
			}
		}
		return st
	}
	cases := []struct {
		name string
		dt   dtype.DataType
		init func() dtype.State // nil: the type's initial state
		ops  []dtype.Operator   // applied in turn
	}{
		{"counter", dtype.Counter{}, nil, []dtype.Operator{dtype.CtrAdd{N: 1}}},
		{"register", dtype.Register{}, nil, []dtype.Operator{dtype.RegWrite{Val: "v"}}},
		{"set", dtype.Set{}, nil, []dtype.Operator{dtype.SetAdd{Elem: "e"}}},
		{"directory", dtype.Directory{}, dir, dirBenchCycle()},
		{"log", dtype.Log{}, nil, []dtype.Operator{dtype.LogLen{}}},
		{"bank", dtype.Bank{}, nil, []dtype.Operator{dtype.BankDeposit{Account: "a", Amount: 1}}},
		{"keyed-16", keyed, keyedAt(k16), k16},
		{"keyed-256", keyed, keyedAt(k256), k256},
		{"keyed-4096", keyed, keyedAt(k4096), k4096},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			st := tc.dt.Initial()
			if tc.init != nil {
				st = tc.init()
			}
			// Collect the set-up's garbage now, so a GC cycle it would
			// trigger is not charged to the operators timed.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, _ = tc.dt.Apply(st, tc.ops[i%len(tc.ops)])
			}
			_ = st
		})
	}
}

// BenchmarkFrontEndFlush measures one batch-flush tick (Cluster.FlushAll)
// over 256 batched front ends of which one is busy — the shape of a
// keyspace shard serving 64 sessions at a few operations per second each.
// The other 255 each submitted once and have idled since, so their targets
// are closed and they have left the flush set. The cluster hosts no
// replica, so the sent requests are dropped and the number is the
// submission and flush path alone.
func BenchmarkFrontEndFlush(b *testing.B) {
	b.Run("idle-256", func(b *testing.B) {
		net := transport.NewLiveNet()
		defer net.Close()
		opt := core.DefaultOptions()
		opt.BatchSize = 32
		cluster := core.NewCluster(core.ClusterConfig{
			Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: opt,
			LocalReplicas: []int{},
		})
		defer cluster.Close()
		fes := make([]*core.FrontEnd, 256)
		for i := range fes {
			fes[i] = cluster.FrontEnd(fmt.Sprintf("c%03d", i))
			fes[i].Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
		}
		for i := 0; i < 100; i++ {
			cluster.FlushAll()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fes[0].Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
			cluster.FlushAll()
		}
	})
}

// BenchmarkTCPNetFrames measures the TCP transport alone: b.N frames of
// one payload sent from one loopback TCPNet to another and timed until the
// last is delivered, so ns/op is the cost of a frame through encode,
// socket and decode, and -benchmem's allocs/op is allocations per frame.
// batch-request-32 is a front end's request batch of 32 increments;
// batch-response-32 is a replica's answer to it; compact-gossip-64 is the
// compact gossip frame a replica sends after taking 64 operations. One
// frame is delivered before the timer starts, so the dial and that
// connection's first type definitions are not counted.
func BenchmarkTCPNetFrames(b *testing.B) {
	core.RegisterWire()
	batch := core.BatchRequestMsg{Ops: make([]ops.Operation, 32)}
	for i := range batch.Ops {
		batch.Ops[i] = ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "bench", Seq: uint64(i + 1)}, nil, false)
	}
	resps := core.BatchResponseMsg{Resps: make([]core.ResponseMsg, 32)}
	for i := range resps.Resps {
		resps.Resps[i] = core.ResponseMsg{ID: batch.Ops[i].ID, Value: "ok"}
	}
	b.Run("batch-request-32", func(b *testing.B) { benchTCPFrames(b, batch) })
	b.Run("batch-response-32", func(b *testing.B) { benchTCPFrames(b, resps) })
	b.Run("compact-gossip-64", func(b *testing.B) { benchTCPFrames(b, compactGossip64()) })
}

func benchTCPFrames(b *testing.B, payload any) {
	dst, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	src, err := transport.NewTCPNet(transport.TCPConfig{
		Listen: "127.0.0.1:0",
		Peers:  map[transport.NodeID]string{"dst": dst.Addr().String()},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	var delivered atomic.Int64
	dst.RegisterInline("dst", func(transport.Message) { delivered.Add(1) })
	dst.Start()
	src.Start()
	wait := func(n int64) {
		deadline := time.Now().Add(30 * time.Second)
		for delivered.Load() < n {
			if time.Now().After(deadline) {
				b.Fatalf("%d of %d frames delivered (stats %+v)", delivered.Load(), n, src.Stats())
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	src.Send("src", "dst", payload)
	wait(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send("src", "dst", payload)
	}
	wait(int64(b.N) + 1)
}

// compactGossip64 returns a compact gossip frame a replica of a
// three-replica cluster sends a peer after taking 64 increments. The
// cluster runs on a SimNet that claims every node negotiated the compact
// form.
func compactGossip64() core.CompactGossipMsg {
	s := sim.New(1)
	net := &compactCapture{SimNet: transport.NewSimNet(s, transport.SimNetConfig{})}
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: core.DefaultOptions(),
	})
	fe := cluster.FrontEnd("bench")
	for i := 0; i < 3*64; i++ { // round robin: 64 to each replica
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	}
	s.Run(0)
	cluster.GossipAll()
	return net.frame
}

// compactCapture is a SimNet that negotiates the compact gossip form for
// every node and keeps the largest compact frame sent.
type compactCapture struct {
	*transport.SimNet
	frame core.CompactGossipMsg
}

func (c *compactCapture) Send(from, to transport.NodeID, payload any) {
	if m, ok := payload.(core.CompactGossipMsg); ok && len(m.Data) > len(c.frame.Data) {
		c.frame = m
	}
	c.SimNet.Send(from, to, payload)
}

func (*compactCapture) AnnounceFeatures(transport.NodeID, uint32) {}

func (*compactCapture) PeerFeatures(transport.NodeID) uint32 {
	return transport.FeatureCompactGossip
}

// BenchmarkE11ResizeUnderLoad runs the online-resharding experiment: a
// 4→8 shard growth under a steady increment load, reporting throughput in
// the pre/during/post windows and the migrated fraction. Verification
// here covers the structural claims (no lost operations, ring-tracking
// key movement); the throughput-dip gates run in `esds-bench -exp e11`
// (wall-clock ratios are machine-dependent).
func BenchmarkE11ResizeUnderLoad(b *testing.B) {
	p := exp.DefaultResizeExpParams()
	p.MinPostRatio, p.MinDuringRatio = 0, 0
	var r exp.ResizeExpResult
	for i := 0; i < b.N; i++ {
		r = exp.RunResizeExp(p)
		if err := r.Verify(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Pre.Throughput, "ops/s-pre")
	b.ReportMetric(r.During.Throughput, "ops/s-migrating")
	b.ReportMetric(r.Post.Throughput, "ops/s-post")
	b.ReportMetric(r.MovedFraction, "moved-frac")
	b.ReportMetric(r.ResizeDuration.Seconds()*1000, "resize-ms")
	b.ReportMetric(r.During.P99Ms, "p99-ms-migrating")
	b.ReportMetric(r.Post.P99Ms, "p99-ms-post")
}
