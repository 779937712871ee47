package exp

import (
	"strings"
	"testing"

	"esds/internal/sim"
)

// Reduced parameter sets keep the test suite quick; the full paper-scale
// sweeps run via cmd/esds-bench.

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
	if len(all) != 9 {
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

// TestExperimentDeterminism runs every registered experiment twice at its
// default, paper-scale parameters: each table must be the same bit for bit
// and must verify.
func TestExperimentDeterminism(t *testing.T) {
	for _, e := range All() {
		a, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v\n%s", e.ID, err, a)
		}
		if b, _ := e.Run(); a != b {
			t.Fatalf("%s is not deterministic:\n%s\nthen\n%s", e.ID, a, b)
		}
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
