package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/placement"
	"esds/internal/sim"
	"esds/internal/spec"
	"esds/internal/transport"
)

// The chaos suite drives live clusters through adversarial conditions —
// jittered latency, message loss, duplication, crash windows — with front
// ends retransmitting, then heals the network and checks the paper's
// safety claims on whatever happened:
//
//   - the cluster converges to a single label order (eventual
//     serialization),
//   - every request is eventually answered (liveness under retransmission,
//     §9.3),
//   - the converged order is consistent with all client-specified
//     constraints and explains every strict response (Theorem 5.8).
func runChaos(t *testing.T, seed int64, replicas, numOps int, strictProb, dropProb, dupProb float64, crashWindows bool) {
	t.Helper()
	s := sim.New(seed)
	isReplica := func(id transport.NodeID) bool {
		return len(id) > 8 && id[:8] == "replica:"
	}
	net := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica,
			transport.UniformLatency(200*sim.Microsecond, 2*sim.Millisecond),
			transport.UniformLatency(500*sim.Microsecond, 4*sim.Millisecond)),
		DropProb: dropProb,
		DupProb:  dupProb,
		Sizer:    EstimateSize,
	})
	cluster := NewCluster(ClusterConfig{
		Replicas: replicas,
		DataType: dtype.Log{},
		Network:  net,
		Options:  Options{Memoize: true}, // lost gossip is resent once its ack is overdue
	})
	cluster.StartSimGossip(s, 5*sim.Millisecond)
	defer cluster.Close()

	rng := rand.New(rand.NewSource(seed))
	clients := []string{"a", "b", "c"}

	// Front ends retransmit pending requests every 40ms.
	for _, c := range clients {
		fe := cluster.FrontEnd(c)
		s.Every(40*sim.Millisecond, func() { fe.Retransmit() })
	}

	// Crash windows: replica i is down during [60+40i, 100+40i) ms.
	if crashWindows {
		for i := 0; i < replicas && i < 3; i++ {
			node := ReplicaNode(label.ReplicaID(i))
			down := sim.Time((60 + 40*i)) * sim.Time(sim.Millisecond)
			up := down.Add(40 * sim.Millisecond)
			s.ScheduleAt(down, func() { net.SetNodeDown(node, true) })
			s.ScheduleAt(up, func() { net.SetNodeDown(node, false) })
		}
	}

	// Workload: appends and reads, random strictness, random prev sets over
	// this client's earlier ops.
	type outcome struct {
		x     ops.Operation
		value dtype.Value
		done  bool
	}
	var all []*outcome
	issued := make(map[string][]ops.ID)
	for i := 0; i < numOps; i++ {
		i := i
		c := clients[rng.Intn(len(clients))]
		at := sim.Time(rng.Intn(300)) * sim.Time(sim.Millisecond)
		strict := rng.Float64() < strictProb
		s.ScheduleAt(at, func() {
			fe := cluster.FrontEnd(c)
			var prev []ops.ID
			if hist := issued[c]; len(hist) > 0 && rng.Float64() < 0.4 {
				prev = []ops.ID{hist[rng.Intn(len(hist))]}
			}
			var op dtype.Operator = dtype.LogAppend{Entry: fmt.Sprintf("%s%d", c, i)}
			if rng.Float64() < 0.3 {
				op = dtype.LogLen{}
			}
			o := &outcome{}
			o.x = fe.Submit(op, prev, strict, func(r Response) {
				o.value = r.Value
				o.done = true
			})
			issued[c] = append(issued[c], o.x.ID)
			all = append(all, o)
		})
	}

	// Chaos phase, then heal and drain.
	s.RunUntil(sim.Time(400 * sim.Millisecond))
	net.SetDropProb(0)
	s.RunUntil(sim.Time(3 * sim.Second))

	// Liveness: everything answered after the heal + retransmissions.
	for _, o := range all {
		if !o.done {
			t.Fatalf("seed %d: op %v never answered", seed, o.x)
		}
	}
	// Convergence to one order.
	conv := cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("seed %d: no convergence: %s", seed, conv.Reason)
	}
	if len(conv.Order) != len(all) {
		t.Fatalf("seed %d: order has %d ops, submitted %d", seed, len(conv.Order), len(all))
	}
	// Theorem 5.8 on the trace: the converged order must be CSC-consistent
	// and explain every strict response.
	requested := make([]ops.Operation, 0, len(all))
	strictResponses := make(map[ops.ID]dtype.Value)
	for _, o := range all {
		requested = append(requested, o.x)
		if o.x.Strict {
			strictResponses[o.x.ID] = o.value
		}
	}
	if err := spec.ExplainStrictResponses(dtype.Log{}, requested, conv.Order, strictResponses); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

func TestChaosLossAndDuplication(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		runChaos(t, seed, 3, 40, 0.3, 0.15, 0.10, false)
	}
}

func TestChaosWithCrashWindows(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		runChaos(t, seed, 3, 30, 0.3, 0.10, 0.05, true)
	}
}

func TestChaosFiveReplicasHighStrict(t *testing.T) {
	for seed := int64(20); seed < 23; seed++ {
		runChaos(t, seed, 5, 30, 0.7, 0.10, 0.10, false)
	}
}

func TestChaosNoFaultsManyOps(t *testing.T) {
	runChaos(t, 42, 4, 120, 0.25, 0, 0, false)
}

// --- crash/recover/prune chaos matrix ---
//
// Unlike the crash WINDOWS above (a replica is merely unreachable), these
// runs crash replicas with full memory loss and drive §9.3 recovery —
// range rounds against every peer, the state transfer that makes recovery
// composable with §10.2 pruning. The matrix crosses crash timing × options
// (pruning, batching, store kind) × gossip loss over a pinned seed set, and
// failures shrink to a minimal reproduction before reporting.

// opaqueType hides every optional interface of a data type — in particular
// dtype.Snapshotter — behind the three DataType methods: the shape of a
// user-defined type with no canonical state encoding, whose only way back
// after a crash is descriptor replay.
type opaqueType struct{ inner dtype.DataType }

func (o opaqueType) Name() string         { return o.inner.Name() }
func (o opaqueType) Initial() dtype.State { return o.inner.Initial() }
func (o opaqueType) Apply(s dtype.State, op dtype.Operator) (dtype.State, dtype.Value) {
	return o.inner.Apply(s, op)
}

// recoveryChaosConfig is one cell of the crash/recover chaos matrix. All
// randomness derives from Seed, so a failing cell is its own reproduction
// recipe.
type recoveryChaosConfig struct {
	Seed       int64
	Replicas   int
	NumOps     int
	StrictProb float64
	DropProb   float64
	CrashFrac  float64 // fraction of the workload window before the first crash
	Cycles     int     // crash/recover cycles
	Victims    int     // replicas crashed per cycle, windows overlapping (0 means 1)
	Opt        Options
	FileStores bool // real FileStableStore group-commit logs instead of MemStableStore
	Opaque     bool // hide the Log's Snapshotter: recovery is full-tail descriptor replay
}

func (c recoveryChaosConfig) String() string {
	return fmt.Sprintf("seed=%d replicas=%d ops=%d strict=%.2f drop=%.2f crashFrac=%.2f cycles=%d victims=%d prune=%v filestores=%v opaque=%v",
		c.Seed, c.Replicas, c.NumOps, c.StrictProb, c.DropProb, c.CrashFrac, c.Cycles, c.Victims,
		c.Opt.Prune, c.FileStores, c.Opaque)
}

// runRecoveryChaos drives one cell and returns the first violated property
// (nil when the run satisfies all of them). Properties:
//
//   - liveness: every request is eventually answered (front-end
//     retransmission plus recovery restore service),
//   - convergence to one label order after healing,
//   - EVERY answered operation — strict or not — appears in the converged
//     order: the stable store persists descriptors alongside labels
//     (DESIGN.md §10) and recovery replays them, so an op answered by a
//     replica that crashed before gossiping it is re-introduced rather
//     than lost (the former "answered then lost" §9.3 weakness),
//   - Theorem 5.8: the converged order is CSC-consistent and explains every
//     strict response,
//   - no replica recorded a fault (hostile-input rejections; honest chaos
//     must never trigger one).
func runRecoveryChaos(cfg recoveryChaosConfig) error {
	s := sim.New(cfg.Seed)
	isReplica := func(id transport.NodeID) bool {
		return len(id) > 8 && id[:8] == "replica:"
	}
	net := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica,
			transport.UniformLatency(200*sim.Microsecond, 2*sim.Millisecond),
			transport.UniformLatency(500*sim.Microsecond, 4*sim.Millisecond)),
		DropProb: cfg.DropProb,
		Sizer:    EstimateSize,
	})
	stores := make([]StableStore, cfg.Replicas)
	if cfg.FileStores {
		// Real group-commit logs: every cell property must hold with fsyncs
		// and the framed on-disk format in the loop, not just the in-memory
		// model of them.
		dir, err := os.MkdirTemp("", "esds-chaos-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		for i := range stores {
			st, err := OpenFileStableStore(filepath.Join(dir, fmt.Sprintf("r%d.labels", i)))
			if err != nil {
				return err
			}
			defer st.Close()
			stores[i] = st
		}
	} else {
		for i := range stores {
			stores[i] = NewMemStableStore()
		}
	}
	var dt dtype.DataType = dtype.Log{}
	if cfg.Opaque {
		dt = opaqueType{dt}
	}
	cluster := NewCluster(ClusterConfig{
		Replicas: cfg.Replicas,
		DataType: dt,
		Network:  net,
		Options:  cfg.Opt,
		Stores:   stores,
	})
	cluster.StartSimGossip(s, 5*sim.Millisecond)
	defer cluster.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	clients := []string{"a", "b", "c"}
	for _, c := range clients {
		fe := cluster.FrontEnd(c)
		s.Every(40*sim.Millisecond, func() { fe.Retransmit() })
	}
	// Re-issue stuck recovery rounds: range requests and chunks are plain
	// messages and can be dropped like anything else. RetryRecovery keeps
	// the answers already collected.
	s.Every(50*sim.Millisecond, func() {
		for _, r := range cluster.LocalReplicas() {
			r.RetryRecovery()
		}
	})

	// Crash/recover cycles: full memory loss, down for 40ms, then §9.3
	// recovery. Cycles are spaced so one cycle's victims are back before the
	// next one's crash. Within a cycle, Victims > 1 staggers the crashes by
	// 10ms: the down windows and the recoveries overlap, and each victim's
	// barrier includes a peer that is itself recovering.
	const horizon = 300 * sim.Millisecond
	victims := cfg.Victims
	if victims < 1 {
		victims = 1
	}
	for c := 0; c < cfg.Cycles; c++ {
		first := rng.Intn(cfg.Replicas)
		for v := 0; v < victims; v++ {
			victim := cluster.Replica((first + v) % cfg.Replicas)
			down := sim.Time(50+200*cfg.CrashFrac+110*float64(c)+10*float64(v)) * sim.Time(sim.Millisecond)
			up := down.Add(40 * sim.Millisecond)
			s.ScheduleAt(down, func() {
				net.SetNodeDown(victim.Node(), true)
				victim.Crash()
			})
			s.ScheduleAt(up, func() {
				net.SetNodeDown(victim.Node(), false)
				victim.Recover()
			})
		}
	}

	// Workload: appends and reads over the window. Prev constraints only
	// reference this client's answered STRICT ops: a strict response proves
	// the op stable (descriptor at every replica), so no crash can orphan
	// the constraint — unanswered or non-strict prevs could deadlock the
	// dependent op if the referenced op dies with a crashed replica.
	type outcome struct {
		x     ops.Operation
		value dtype.Value
		done  bool
	}
	var all []*outcome
	safePrev := make(map[string][]ops.ID)
	for i := 0; i < cfg.NumOps; i++ {
		i := i
		c := clients[rng.Intn(len(clients))]
		at := sim.Time(rng.Intn(300)) * sim.Time(sim.Millisecond)
		strict := rng.Float64() < cfg.StrictProb
		s.ScheduleAt(at, func() {
			fe := cluster.FrontEnd(c)
			var prev []ops.ID
			if hist := safePrev[c]; len(hist) > 0 && rng.Float64() < 0.4 {
				prev = []ops.ID{hist[rng.Intn(len(hist))]}
			}
			var op dtype.Operator = dtype.LogAppend{Entry: fmt.Sprintf("%s%d", c, i)}
			if rng.Float64() < 0.3 {
				op = dtype.LogLen{}
			}
			o := &outcome{}
			o.x = fe.Submit(op, prev, strict, func(r Response) {
				o.value = r.Value
				o.done = true
				if strict {
					safePrev[c] = append(safePrev[c], o.x.ID)
				}
			})
			all = append(all, o)
		})
	}

	// Chaos, heal, drain.
	s.RunUntil(sim.Time(horizon).Add(100 * sim.Millisecond))
	net.SetDropProb(0)
	s.RunUntil(sim.Time(5 * sim.Second))

	for _, o := range all {
		if !o.done {
			return fmt.Errorf("liveness: op %v never answered", o.x)
		}
	}
	conv := cluster.CheckConvergence()
	if !conv.Converged {
		return fmt.Errorf("no convergence: %s", conv.Reason)
	}
	inOrder := make(map[ops.ID]struct{}, len(conv.Order))
	for _, id := range conv.Order {
		inOrder[id] = struct{}{}
	}
	requested := make([]ops.Operation, 0, len(all))
	strictResponses := make(map[ops.ID]dtype.Value)
	for _, o := range all {
		if _, ok := inOrder[o.x.ID]; !ok {
			// Before descriptors were durable, an answered non-strict op could
			// legally vanish here (its only replica crashed before gossiping
			// it). With PersistOp + recovery replay there is no legal way out
			// of the order.
			return fmt.Errorf("answered op %v missing from converged order (durable-descriptor replay failed)", o.x)
		}
		requested = append(requested, o.x)
		if o.x.Strict {
			strictResponses[o.x.ID] = o.value
		}
	}
	if len(conv.Order) != len(requested) {
		return fmt.Errorf("converged order has %d ops, submitted %d", len(conv.Order), len(requested))
	}
	if err := spec.ExplainStrictResponses(dtype.Log{}, requested, conv.Order, strictResponses); err != nil {
		return err
	}
	if faults := cluster.Faults(); len(faults) > 0 {
		return fmt.Errorf("replica faults under honest chaos: %v", faults)
	}
	return nil
}

// shrinkRecoveryChaos reduces a failing configuration while it keeps
// failing — fewer ops, fewer crash cycles, no loss — and returns the
// smallest still-failing cell with its error. Deterministic seeds make the
// result a one-line reproduction.
func shrinkRecoveryChaos(cfg recoveryChaosConfig, orig error) (recoveryChaosConfig, error) {
	minCfg, minErr := cfg, orig
	try := func(c recoveryChaosConfig) bool {
		if err := runRecoveryChaos(c); err != nil {
			minCfg, minErr = c, err
			return true
		}
		return false
	}
	if c := minCfg; c.DropProb > 0 {
		c.DropProb = 0
		try(c)
	}
	if c := minCfg; c.Cycles > 1 {
		c.Cycles = 1
		try(c)
	}
	for minCfg.NumOps > 1 {
		c := minCfg
		c.NumOps /= 2
		if !try(c) {
			break
		}
	}
	return minCfg, minErr
}

// chaosSeeds returns the pinned seed set, overridable for broader local or
// CI sweeps via ESDS_CHAOS_SEEDS (comma-separated integers); see
// `make chaos`.
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("ESDS_CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("ESDS_CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// TestChaosCrashRecoverPruneMatrix is the deterministic fault-injection
// matrix: crash timing × option sets × gossip loss × pinned seeds.
func TestChaosCrashRecoverPruneMatrix(t *testing.T) {
	optSets := []struct {
		name       string
		opt        Options
		fileStores bool
		opaque     bool
	}{
		// A type with no state encoding: Prune is requested and must not
		// take effect (NewReplica), and every recovery is the full-tail
		// descriptor replay.
		{"replay", Options{Memoize: true, Prune: true}, false, true},
		{"memoize", Options{Memoize: true}, false, false},
		{"prune", Options{Memoize: true, Prune: true}, false, false},
		// The batched hot path (DESIGN.md §8) must be invisible to the
		// crash/recovery obligations: requests arrive in BatchRequestMsg
		// frames, responses leave in BatchResponseMsg frames, and every
		// cell property (liveness, convergence, Theorem 5.8, zero faults)
		// must hold verbatim. Partial request batches are healed by the
		// harness's retransmission.
		{"prune+batch", Options{Memoize: true, Prune: true, BatchSize: 8}, false, false},
		// Group-commit cell: the same pruned+batched configuration over real
		// FileStableStore logs — fsyncs, framed records, and descriptor
		// replay from disk in the loop, not just the in-memory model of
		// them. The other cells stay on MemStableStore for speed.
		{"prune+batch+groupcommit", Options{Memoize: true, Prune: true, BatchSize: 8}, true, false},
	}
	for _, opts := range optSets {
		for _, crashFrac := range []float64{0, 0.5, 1.0} {
			for _, drop := range []float64{0, 0.10} {
				for _, seed := range chaosSeeds(t) {
					cfg := recoveryChaosConfig{
						Seed:       seed,
						Replicas:   3,
						NumOps:     30,
						StrictProb: 0.3,
						DropProb:   drop,
						CrashFrac:  crashFrac,
						Cycles:     2,
						Opt:        opts.opt,
						FileStores: opts.fileStores,
						Opaque:     opts.opaque,
					}
					if err := runRecoveryChaos(cfg); err != nil {
						minCfg, minErr := shrinkRecoveryChaos(cfg, err)
						t.Fatalf("%s cell {%v} failed: %v\nminimal failing reproduction: {%v}: %v",
							opts.name, cfg, err, minCfg, minErr)
					}
				}
			}
		}
	}
}

// TestChaosConcurrentRecoveries crashes two of three replicas per cycle
// with overlapping windows: each recovering replica's §9.3 barrier includes
// the other, so a recovering replica must serve range requests from what it
// has, and the one survivor's prefix must reach both. Same properties as
// the matrix, under loss.
func TestChaosConcurrentRecoveries(t *testing.T) {
	for _, crashFrac := range []float64{0, 0.5, 1.0} {
		for _, seed := range chaosSeeds(t) {
			cfg := recoveryChaosConfig{
				Seed:       seed,
				Replicas:   3,
				NumOps:     30,
				StrictProb: 0.3,
				DropProb:   0.10,
				CrashFrac:  crashFrac,
				Cycles:     2,
				Victims:    2,
				Opt:        Options{Memoize: true, Prune: true},
			}
			if err := runRecoveryChaos(cfg); err != nil {
				minCfg, minErr := shrinkRecoveryChaos(cfg, err)
				t.Fatalf("cell {%v} failed: %v\nminimal failing reproduction: {%v}: %v", cfg, err, minCfg, minErr)
			}
		}
	}
}

// runPruneRecoveryScenario is the distilled prune×recovery data-loss
// scenario of DESIGN.md §5: let every replica memoize (and, for a type that
// can snapshot, prune) the whole history, crash a replica with full memory
// loss, recover it, and demand full convergence plus continued service. On
// the seed implementation (no state transfer) this CANNOT pass with pruning
// on — the crashed replica can never re-learn descriptors its peers have
// pruned.
func runPruneRecoveryScenario(dt dtype.DataType, opt Options) error {
	s := sim.New(7)
	df := 1 * sim.Millisecond
	dg := 2 * sim.Millisecond
	isReplica := func(id transport.NodeID) bool {
		return len(id) > 8 && id[:8] == "replica:"
	}
	net := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica, transport.FixedLatency(df), transport.FixedLatency(dg)),
		Sizer:   EstimateSize,
	})
	stores := []StableStore{NewMemStableStore(), NewMemStableStore(), NewMemStableStore()}
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dt,
		Network:  net,
		Options:  opt,
		Stores:   stores,
	})
	cluster.StartSimGossip(s, 5*sim.Millisecond)
	defer cluster.Close()

	type outcome struct {
		x    ops.Operation
		done bool
	}
	var all []*outcome
	submit := func(client, entry string, strict bool) {
		o := &outcome{}
		o.x = cluster.FrontEnd(client).Submit(dtype.LogAppend{Entry: entry}, nil, strict, func(Response) {
			o.done = true
		})
		all = append(all, o)
	}
	for i := 0; i < 10; i++ {
		submit(fmt.Sprintf("c%d", i%2), fmt.Sprintf("pre%d", i), i%4 == 0)
		s.RunFor(3 * sim.Millisecond)
	}

	// Wait until the whole history is memoized everywhere — and, for a type
	// that can snapshot, pruned everywhere: the precondition that makes
	// descriptor replay insufficient. A type that cannot must have kept
	// every descriptor.
	wantRetained := 0
	if !dtype.CanSnapshot(dt) {
		wantRetained = 3 * 10
	}
	settled := false
	for i := 0; i < 200 && !settled; i++ {
		s.RunFor(20 * sim.Millisecond)
		m := cluster.TotalMetrics()
		settled = m.MemoizedOps == 3*10 && m.RetainedOps == wantRetained
	}
	if !settled {
		m := cluster.TotalMetrics()
		return fmt.Errorf("setup: history never settled (MemoizedOps=%d RetainedOps=%d, want %d/%d); scenario needs Prune+Memoize",
			m.MemoizedOps, m.RetainedOps, 3*10, wantRetained)
	}

	r0 := cluster.Replica(0)
	net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	s.RunFor(30 * sim.Millisecond)
	net.SetNodeDown(r0.Node(), false)
	r0.Recover()
	s.RunFor(500 * sim.Millisecond)

	if r0.Recovering() {
		return fmt.Errorf("recovery never completed")
	}
	// Post-recovery service: the recovered replica labels new work.
	fe := cluster.FrontEnd("post")
	fe.StickTo(ReplicaNode(0))
	o := &outcome{}
	o.x = fe.Submit(dtype.LogAppend{Entry: "post"}, nil, true, func(Response) { o.done = true })
	all = append(all, o)
	s.RunFor(2 * sim.Second)

	for _, o := range all {
		if !o.done {
			return fmt.Errorf("op %v never answered", o.x.ID)
		}
	}
	conv := cluster.CheckConvergence()
	if !conv.Converged {
		return fmt.Errorf("no convergence after recovery: %s", conv.Reason)
	}
	if len(conv.Order) != len(all) {
		return fmt.Errorf("converged order has %d ops, want %d: the crashed replica lost pruned history",
			len(conv.Order), len(all))
	}
	if faults := cluster.Faults(); len(faults) > 0 {
		return fmt.Errorf("replica faults: %v", faults)
	}
	return nil
}

// TestPruneRecoveryDataLossRegression pins the repaired prune×recovery
// composition under the production configuration. On the pre-state-transfer
// implementation this test FAILS (a replica that crashes after its peers
// pruned can never re-learn the history) — it is the regression witness for
// DESIGN.md §5's former known gap.
func TestPruneRecoveryDataLossRegression(t *testing.T) {
	opt := DefaultOptions()
	opt.Commute = false // commute mode needs the SafeUsers discipline; this workload is unconstrained
	if !opt.Memoize || !opt.Prune {
		t.Fatal("production options must memoize and prune")
	}
	if err := runPruneRecoveryScenario(dtype.Log{}, opt); err != nil {
		t.Fatalf("prune+recovery under production options: %v", err)
	}
}

// TestPruneRecoveryWithoutSnapshotterLosesNothing is the other half of the
// same obligation: a data type with no state encoding cannot be handed a
// memoized prefix, so under the same production options its replicas must
// never prune what only a prefix could restore. The identical scenario —
// memoize everything, crash, recover — must converge with nothing lost, by
// descriptor replay. (While pruning was decided by the option alone this
// configuration silently discarded the history.)
func TestPruneRecoveryWithoutSnapshotterLosesNothing(t *testing.T) {
	opt := DefaultOptions()
	opt.Commute = false
	if err := runPruneRecoveryScenario(opaqueType{dtype.Log{}}, opt); err != nil {
		t.Fatalf("recovery of a non-snapshottable type under production options: %v", err)
	}
}

// --- placement chaos: kill a hosting member, recover via range catch-up ---

// placementChaosConfig is one cell of the placement chaos matrix: a placed
// fleet (each shard on a strict subset of the members) under gossip loss,
// with one member killed mid-load — every replica it hosts crashes with
// full memory loss — and brought back by Recover(): range rounds against
// the surviving co-hosts of each shard it hosts (DESIGN.md §5). All
// randomness derives from Seed.
type placementChaosConfig struct {
	Seed       int64
	Shards     int
	Replicas   int
	Members    int
	NumOps     int
	StrictProb float64
	DropProb   float64
	Opt        Options
}

func (c placementChaosConfig) String() string {
	return fmt.Sprintf("seed=%d shards=%d replicas=%d members=%d ops=%d strict=%.2f drop=%.2f prune=%v",
		c.Seed, c.Shards, c.Replicas, c.Members, c.NumOps, c.StrictProb, c.DropProb, c.Opt.Prune)
}

// runPlacementChaos drives one cell and returns the first violated
// property. Properties:
//
//   - liveness: every submitted operation is answered (retransmission
//     rotates to surviving hosts while the victim is down; range recovery
//     restores the killed slots),
//   - the victim rejoined through range catch-up (one completed round per
//     killed replica, served by a surviving co-host),
//   - strict read-back: a post-heal strict read per object observes every
//     acknowledged operation on it,
//   - no member recorded a fault.
func runPlacementChaos(cfg placementChaosConfig) error {
	s := sim.New(cfg.Seed)
	isReplica := func(id transport.NodeID) bool {
		return transport.ShardOfNode(id) >= 0 && strings.Contains(string(id), "replica:")
	}
	net := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica,
			transport.UniformLatency(200*sim.Microsecond, 2*sim.Millisecond),
			transport.UniformLatency(500*sim.Microsecond, 4*sim.Millisecond)),
		DropProb: cfg.DropProb,
		Sizer:    EstimateSize,
	})
	place := placement.New(cfg.Shards, cfg.Replicas, cfg.Members)
	members := make([]*Keyspace, cfg.Members)
	for m := range members {
		members[m] = NewKeyspace(KeyspaceConfig{
			Shards:    cfg.Shards,
			Replicas:  cfg.Replicas,
			DataType:  dtype.Counter{},
			Network:   net,
			Options:   cfg.Opt,
			Placement: place,
			Member:    m,
			// The durable store survives the crash even though the replica's
			// memory does not (§9.3).
			StoreFor: func(shard, slot int) StableStore { return NewMemStableStore() },
		})
		members[m].StartSimGossip(s, 5*sim.Millisecond)
		defer members[m].Close()
	}
	cks := NewKeyspace(KeyspaceConfig{
		Shards:        cfg.Shards,
		Replicas:      cfg.Replicas,
		DataType:      dtype.Counter{},
		Network:       net,
		Options:       cfg.Opt,
		LocalReplicas: []int{},
	})
	defer cks.Close()
	s.Every(40*sim.Millisecond, func() { cks.RetransmitAll() })
	// Re-issue stuck recovery rounds: range requests and chunks are plain
	// messages and can be dropped like anything else; the retry rotates an
	// open round to the next surviving co-host.
	s.Every(50*sim.Millisecond, func() {
		for _, ks := range members {
			for sh := 0; sh < ks.NumShards(); sh++ {
				for _, r := range ks.Shard(sh).LocalReplicas() {
					r.RetryRecovery()
				}
			}
		}
	})

	// The kill: one member crashes with full memory loss on every replica
	// it hosts, mid-load; 40ms later it recovers.
	rng := rand.New(rand.NewSource(cfg.Seed))
	victim := members[rng.Intn(cfg.Members)]
	var victimReplicas []*Replica
	for sh := 0; sh < victim.NumShards(); sh++ {
		victimReplicas = append(victimReplicas, victim.Shard(sh).LocalReplicas()...)
	}
	if len(victimReplicas) == 0 {
		return fmt.Errorf("setup: victim member hosts nothing")
	}
	s.ScheduleAt(sim.Time(150*sim.Millisecond), func() {
		for _, r := range victimReplicas {
			net.SetNodeDown(r.Node(), true)
			r.Crash()
		}
	})
	s.ScheduleAt(sim.Time(190*sim.Millisecond), func() {
		for _, r := range victimReplicas {
			net.SetNodeDown(r.Node(), false)
			r.Recover()
		}
	})

	// Workload: keyed counter adds across objects spanning every shard,
	// submitted through the routing client over the whole chaos window. The
	// acknowledged sum per object is the read-back obligation.
	type outcome struct {
		x      ops.Operation
		object string
		n      int64
		done   bool
	}
	var all []*outcome
	clients := []string{"a", "b", "c"}
	routers := make(map[string]*KeyspaceClient, len(clients))
	for _, c := range clients {
		routers[c] = cks.Client(c)
	}
	numObjects := 2 * cfg.Shards
	for i := 0; i < cfg.NumOps; i++ {
		i := i
		c := clients[rng.Intn(len(clients))]
		object := fmt.Sprintf("obj-%d", rng.Intn(numObjects))
		n := int64(rng.Intn(9) + 1)
		strict := rng.Float64() < cfg.StrictProb
		at := sim.Time(rng.Intn(300)) * sim.Time(sim.Millisecond)
		s.ScheduleAt(at, func() {
			o := &outcome{object: object, n: n}
			o.x = routers[c].Submit(cks.WrapOp(object, dtype.CtrAdd{N: n}), nil, strict, func(r Response) {
				o.done = true
			})
			all = append(all, o)
			_ = i
		})
	}

	// Chaos, heal, drain.
	s.RunUntil(sim.Time(400 * sim.Millisecond))
	net.SetDropProb(0)
	s.RunUntil(sim.Time(6 * sim.Second))

	for _, o := range all {
		if !o.done {
			return fmt.Errorf("liveness: op %v on %s never answered", o.x.ID, o.object)
		}
	}
	// The rejoin really went through the range path, once per killed
	// replica, and some surviving member served it.
	if got := victim.TotalMetrics().RangeCatchups; got < uint64(len(victimReplicas)) {
		return fmt.Errorf("victim completed %d range catch-ups, want at least %d (one per killed replica)",
			got, len(victimReplicas))
	}
	served := uint64(0)
	for _, ks := range members {
		if ks != victim {
			served += ks.TotalMetrics().RangeServed
		}
	}
	if served == 0 {
		return fmt.Errorf("no surviving member served a range request")
	}
	// Strict read-back: every acknowledged add is visible.
	expect := make(map[string]int64)
	for _, o := range all {
		expect[o.object] += o.n
	}
	reader := cks.Client("auditor")
	for object, want := range expect {
		var got dtype.Value
		done := false
		reader.Submit(cks.WrapOp(object, dtype.CtrRead{}), nil, true, func(r Response) {
			got = r.Value
			done = true
		})
		s.RunFor(4 * sim.Second)
		if !done {
			return fmt.Errorf("strict read-back of %s never answered", object)
		}
		if got != want {
			return fmt.Errorf("strict read-back of %s = %v, want %d: an acknowledged operation is missing", object, got, want)
		}
	}
	for m, ks := range members {
		if faults := ks.Faults(); len(faults) > 0 {
			return fmt.Errorf("member %d faults: %v", m, faults)
		}
	}
	return nil
}

// TestChaosPlacementKillAndRangeRecover is the placement chaos matrix
// (`make chaos`, CI recovery-chaos job): option sets × gossip loss ×
// pinned seeds (ESDS_CHAOS_SEEDS sweeps more). The replay cell exercises
// a range answer with nothing pruned behind it; the prune cell exercises
// the chunked prefix transfer as the only way back once survivors have
// pruned.
func TestChaosPlacementKillAndRangeRecover(t *testing.T) {
	optSets := []struct {
		name string
		opt  Options
	}{
		{"memoize", Options{Memoize: true}},
		{"prune", Options{Memoize: true, Prune: true}},
	}
	for _, opts := range optSets {
		for _, drop := range []float64{0, 0.10} {
			for _, seed := range chaosSeeds(t) {
				cfg := placementChaosConfig{
					Seed:       seed,
					Shards:     4,
					Replicas:   2,
					Members:    3,
					NumOps:     40,
					StrictProb: 0.3,
					DropProb:   drop,
					Opt:        opts.opt,
				}
				if err := runPlacementChaos(cfg); err != nil {
					t.Fatalf("%s cell {%v} failed: %v", opts.name, cfg, err)
				}
			}
		}
	}
}
