package exp

import (
	"strings"
	"testing"

	"esds/internal/sim"
)

// Reduced parameter sets keep the test suite quick; the full paper-scale
// sweeps run via cmd/esds-bench and the root benchmarks.

func smallE1() E1Params {
	p := DefaultE1Params()
	p.MaxReplicas = 5
	p.RunFor = 600 * sim.Millisecond
	return p
}

func smallE2() E2Params {
	p := DefaultE2Params()
	p.StepPct = 25
	p.RunFor = 600 * sim.Millisecond
	p.Replicas = 3
	return p
}

func smallAblation() AblationParams {
	p := DefaultAblationParams()
	p.Ops = 120
	return p
}

func smallE9() E9Params {
	p := DefaultE9Params()
	p.RunFor = 600 * sim.Millisecond
	return p
}

func TestE1ThroughputScalesLinearly(t *testing.T) {
	r := RunE1(smallE1())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Monotone throughput growth.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Throughput <= r.Rows[i-1].Throughput {
			t.Fatalf("throughput not increasing at n=%d\n%s", r.Rows[i].Replicas, r.Table())
		}
	}
}

func TestE2LatencyGrowsLinearlyWithStrictness(t *testing.T) {
	r := RunE2(smallE2())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	if r.Rows[0].StrictPct != 0 || r.Rows[len(r.Rows)-1].StrictPct != 100 {
		t.Fatalf("sweep endpoints wrong: %+v", r.Rows)
	}
}

func TestE3ResponseBoundsHold(t *testing.T) {
	r := RunE3(DefaultE3Params())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	// The three classes must be strictly separated in mean latency.
	if !(r.Rows[0].MeanMs < r.Rows[1].MeanMs && r.Rows[1].MeanMs < r.Rows[2].MeanMs) {
		t.Fatalf("class latencies not ordered:\n%s", r.Table())
	}
}

func TestE3BoundsHoldUnderJitteredTimings(t *testing.T) {
	p := DefaultE3Params()
	p.Seed = 99
	p.Timing = Timing{DF: 3 * sim.Millisecond, DG: 1 * sim.Millisecond, G: 2 * sim.Millisecond}
	r := RunE3(p)
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestE4StabilizationBoundHolds(t *testing.T) {
	r := RunE4(DefaultE4Params())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestE5FaultRecovery(t *testing.T) {
	r := RunE5(DefaultE5Params())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestE6MemoizationAblation(t *testing.T) {
	r := RunE6(smallAblation())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestE7CommuteAblation(t *testing.T) {
	r := RunE7(smallAblation())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestE8IncrementalGossipAblation(t *testing.T) {
	r := RunE8(smallAblation())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
}

func TestE9Baselines(t *testing.T) {
	r := RunE9(smallE9())
	if err := r.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestRegistryCompleteAndTablesRender(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Fatalf("incomplete entry %+v", e)
		}
	}
	if _, ok := ByID("e3"); !ok {
		t.Fatal("ByID(e3) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) succeeded")
	}
}

func TestExperimentDeterminism(t *testing.T) {
	a := RunE3(DefaultE3Params())
	b := RunE3(DefaultE3Params())
	if a.Table() != b.Table() {
		t.Fatal("E3 not deterministic")
	}
	c := RunE5(DefaultE5Params())
	d := RunE5(DefaultE5Params())
	if c.Table() != d.Table() {
		t.Fatal("E5 not deterministic")
	}
}

func TestDeltaValues(t *testing.T) {
	tm := Timing{DF: 1 * sim.Millisecond, DG: 2 * sim.Millisecond, G: 5 * sim.Millisecond}
	if Delta(NonStrictNoPrev, tm) != 2*sim.Millisecond {
		t.Error("δ class 1 wrong")
	}
	if Delta(NonStrictWithPrev, tm) != 9*sim.Millisecond {
		t.Error("δ class 2 wrong")
	}
	if Delta(Strict, tm) != 23*sim.Millisecond {
		t.Error("δ class 3 wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown class should panic")
		}
	}()
	Delta(OpClass3(9), tm)
}

func TestDirectoryWorkloadCoversOperators(t *testing.T) {
	env := NewEnv(EnvConfig{Seed: 42, Replicas: 2, DataType: dirDT()})
	next := DirectoryWorkload(env.RNG)
	kinds := make(map[string]bool)
	for i := 0; i < 500; i++ {
		kinds[strings.SplitN(strings.TrimLeft(fmtOp(next()), " "), "(", 2)[0]] = true
	}
	for _, want := range []string{"lookup", "getattr", "bind", "setattr", "list"} {
		if !kinds[want] {
			t.Errorf("workload never produced %s", want)
		}
	}
	env.Cluster.Close()
}

func fmtOp(op any) string {
	if s, ok := op.(interface{ String() string }); ok {
		return s.String()
	}
	return ""
}

func TestE10ShardedSmoke(t *testing.T) {
	// Structural smoke of the sharded-throughput experiment: tiny workload,
	// no speedup assertion (wall-clock speedups are machine-dependent; the
	// headline run is `esds-bench -exp e10` / BenchmarkE10ShardedThroughput).
	p := SmokeShardedParams()
	r := RunSharded(p)
	if err := r.Verify(p); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	for _, row := range r.Rows {
		if row.Ops != p.Workers*p.OpsPerWorker {
			t.Fatalf("row %+v incomplete", row)
		}
	}
}

func TestE11ResizeSmoke(t *testing.T) {
	// Structural smoke of the online-resharding experiment: tiny workload,
	// no throughput gates (machine-dependent; the headline gated run is
	// `esds-bench -exp e11` / BenchmarkE11ResizeUnderLoad). The structural
	// claims — nothing lost across the migration, moved keys track the
	// ring diff — are still asserted.
	p := SmokeResizeExpParams()
	r := RunResizeExp(p)
	if err := r.Verify(p); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	if r.KeysMoved == 0 {
		t.Fatalf("resize moved nothing:\n%s", r.Table())
	}
}

func TestE13CoreScalingSmoke(t *testing.T) {
	// Structural smoke of the core-scaling experiment: tiny workload at 1
	// and 2 GOMAXPROCS, no scaling gate (the headline gated run is
	// `esds-bench -exp e13` / BenchmarkE13CoreScaling, and the gate only
	// arms on machines with the swept cores). The structural claims — every
	// point completes on the worker runtime and strictly reads back exactly
	// its writes — are still asserted.
	p := SmokeCoreScalingParams()
	r := RunCoreScaling(p)
	if err := r.Verify(p); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	for _, row := range r.Rows {
		if row.Ops != p.Clients*p.OpsPerClient {
			t.Fatalf("row %+v incomplete", row)
		}
	}
}

func TestE14DurableSmoke(t *testing.T) {
	// Structural smoke of the durable-write-path experiment: one tiny
	// batched point measured durable and NoSync over real FileStableStore
	// journals, no ratio gate (fsync cost is machine-dependent; the headline
	// gated run is `esds-bench -exp e14` / BenchmarkE14DurableThroughput).
	// The structural claims — both legs serialize and read back every op,
	// and the durable leg actually fsynced — are still asserted.
	p := SmokeDurableParams()
	r := RunDurable(p)
	if err := r.Verify(p); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	for _, row := range r.Rows {
		if row.Ops != p.Clients*p.OpsPerClient {
			t.Fatalf("row %+v incomplete", row)
		}
		if row.OpsPerSync <= 0 {
			t.Fatalf("row %+v recorded no committer passes", row)
		}
	}
}

func TestE15LoadLabSmoke(t *testing.T) {
	// Structural smoke of the hostile-network load lab: tiny open-loop
	// windows on the clean and lossy profiles, no resize, no file stores,
	// no p99 gate (latency tails are machine-dependent; the headline gated
	// run is `esds-bench -exp e15` / BenchmarkE15LoadLab). The structural
	// claims — every offered op answered, read back exactly, present in a
	// converged order — are folded into Verify via each point's audit.
	p := SmokeLoadLabParams()
	r := RunLoadLab(p)
	if err := r.Verify(p); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	for _, row := range r.Rows {
		if row.P50Ms <= 0 || row.P99Ms < row.P50Ms {
			t.Fatalf("row %+v has an implausible latency distribution", row)
		}
	}
}

func TestE12BatchingSmoke(t *testing.T) {
	// Structural smoke of the batched-hot-path experiment: tiny pipelined
	// workload over real loopback sockets, no speedup gate (wall-clock
	// speedups are machine-dependent; the headline gated run is
	// `esds-bench -exp e12` / BenchmarkE12BatchedHotPath). The structural
	// claims — every op serialized and read back, bytes/op not inflated by
	// batching — are still asserted.
	p := SmokeBatchingParams()
	r := RunBatching(p)
	if err := r.Verify(p); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	for _, row := range r.Rows {
		if row.Ops != p.Clients*p.OpsPerClient {
			t.Fatalf("row %+v incomplete", row)
		}
		if row.WireBytes == 0 || row.Frames == 0 {
			t.Fatalf("row %+v recorded no wire traffic", row)
		}
	}
}

func TestE16StepLoadSmoke(t *testing.T) {
	// Structural smoke of the step-load experiment: tiny sweep over real
	// loopback sockets, throughput and bytes/op gates off (wall-clock
	// ratios are machine-dependent; the headline gated run is `esds-bench
	// -exp e16` / BenchmarkE16StepLoad). The structural claims — every
	// offered op answered and read back, real wire traffic on every point,
	// the compact path engaged exactly when negotiated — are folded into
	// the runner and asserted by Verify.
	p := SmokeStepLoadParams()
	r := RunStepLoad(p)
	if err := r.Verify(p); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	// The delta encoding must not INFLATE the wire even at smoke scale:
	// compact ≤ legacy bytes/op at the same batch size.
	compact, ok1 := r.BytesPerOp(p.Size, false)
	legacy, ok2 := r.BytesPerOp(p.Size, true)
	if !ok1 || !ok2 {
		t.Fatalf("missing batch-%d candidates:\n%s", p.Size, r.Table())
	}
	if compact > legacy {
		t.Fatalf("compact gossip bytes/op %.0f exceeds legacy %.0f\n%s", compact, legacy, r.Table())
	}
}

func TestE17FleetSmoke(t *testing.T) {
	// Structural smoke of the placement fleet experiment: two small placed
	// fleets over real loopback sockets, drop gates off (the headline gated
	// run is `esds-bench -exp e17` / BenchmarkE17FleetPlacement). The
	// structural claims — every offered op answered and read back strictly,
	// zero foreign gossip frames on every member wire, zero replica faults
	// — are folded into the runner and surface through Verify.
	p := SmokeFleetParams()
	r := RunFleet(p)
	if err := r.Verify(p); err != nil {
		t.Fatalf("%v\n%s", err, r.Table())
	}
	// Even without the drop gates, growing the fleet at fixed geometry must
	// strictly shrink the per-member hosted set: placement's whole point.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.ResidentMean >= first.ResidentMean {
		t.Fatalf("resident shards per member did not fall (%.2f at %d members, %.2f at %d)\n%s",
			first.ResidentMean, first.Members, last.ResidentMean, last.Members, r.Table())
	}
}
