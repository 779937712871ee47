package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// runWorkload drives a fixed mixed workload and returns the responses keyed
// by operation id plus the environment for further inspection.
func runWorkload(t *testing.T, opt Options, strictEvery int) (map[ops.ID]string, *testEnv) {
	t.Helper()
	return workload{dt: dtype.Log{}, n: 30, gen: logOp, spacing: 2 * sim.Millisecond}.run(t, opt, strictEvery)
}

// workload is n operators gen(0..n-1) submitted from three clients, one
// every spacing, to a three-replica cluster of dt: round robin over the
// replicas, or all at replica 0 when pinned (sessions kept on their
// nearest replica).
type workload struct {
	dt      dtype.DataType
	n       int
	gen     func(int) dtype.Operator
	spacing sim.Duration
	pinned  bool
}

// logOp appends, with every fifth operation a read.
func logOp(i int) dtype.Operator {
	if i%5 == 4 {
		return dtype.LogRead{}
	}
	return dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}
}

// dirOp is a Directory mix over five names: binds, attribute writes,
// attribute reads and lookups.
func dirOp(i int) dtype.Operator {
	name := fmt.Sprintf("n%d", i%5)
	switch i % 4 {
	case 0:
		return dtype.DirBind{Name: name}
	case 1:
		return dtype.DirSetAttr{Name: name, Key: fmt.Sprintf("k%d", i%3), Val: fmt.Sprintf("v%d", i)}
	case 2:
		return dtype.DirGetAttr{Name: name, Key: fmt.Sprintf("k%d", i%3)}
	default:
		return dtype.DirLookup{Name: name}
	}
}

// run drives the workload (every strictEvery-th operation strict) and
// returns the responses keyed by operation id plus the environment.
func (w workload) run(t *testing.T, opt Options, strictEvery int) (map[ops.ID]string, *testEnv) {
	t.Helper()
	e := newTestEnv(t, 3, w.dt, opt)
	for c := 0; c < 3 && w.pinned; c++ {
		e.cluster.FrontEnd(fmt.Sprintf("c%d", c)).StickTo(ReplicaNode(0))
	}
	var all []*result
	for i := 0; i < w.n; i++ {
		strict := strictEvery > 0 && i%strictEvery == 0
		all = append(all, e.submit(fmt.Sprintf("c%d", i%3), w.gen(i), nil, strict))
		e.s.RunFor(w.spacing)
	}
	e.s.RunFor(800 * sim.Millisecond)
	results := make(map[ops.ID]string, len(all))
	for _, r := range all {
		if r.done {
			results[r.x.ID] = fmt.Sprint(r.value)
		}
	}
	return results, e
}

// TestMemoizationPreservesResponsesAndCutsWork runs each workload with and
// without Memoize: identical responses and eventual order, fewer response
// applies. The Directory cases are non-commuting reads and writes whose
// responses used to replay the whole unstable suffix each; with sessions
// pinned to one replica (appends only, a suffix ~30 operations long) that
// was ~15 applies per response, and the suffix cache must hold it to at
// most two.
func TestMemoizationPreservesResponsesAndCutsWork(t *testing.T) {
	for _, tc := range []struct {
		name        string
		w           workload
		perResponse uint64 // response applies per response allowed under Memoize (0: no bound)
	}{
		{"log", workload{dt: dtype.Log{}, n: 30, gen: logOp, spacing: 2 * sim.Millisecond}, 0},
		{"directory", workload{dt: dtype.Directory{}, n: 120, gen: dirOp, spacing: 2 * sim.Millisecond}, 0},
		{"directory-pinned", workload{dt: dtype.Directory{}, n: 240, gen: dirOp, spacing: sim.Millisecond / 2, pinned: true}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			collect := func(opt Options) (map[ops.ID]string, ReplicaMetrics, Convergence) {
				results, e := tc.w.run(t, opt, 6)
				return results, e.cluster.TotalMetrics(), e.cluster.CheckConvergence()
			}
			baseRes, baseM, baseConv := collect(Options{})
			memoRes, memoM, memoConv := collect(Options{Memoize: true})

			if !baseConv.Converged || !memoConv.Converged {
				t.Fatalf("convergence: base=%v memo=%v", baseConv.Reason, memoConv.Reason)
			}
			if len(baseRes) == 0 || len(baseRes) != len(memoRes) {
				t.Fatalf("response counts differ: %d vs %d", len(baseRes), len(memoRes))
			}
			for id, v := range baseRes {
				if memoRes[id] != v {
					t.Errorf("op %v: base %q, memoized %q", id, v, memoRes[id])
				}
			}
			// Both runs are identical except for internal caching, so the
			// eventual orders must match exactly.
			for i := range baseConv.Order {
				if baseConv.Order[i] != memoConv.Order[i] {
					t.Fatalf("eventual orders diverge at %d", i)
				}
			}
			if memoM.AppliesForResponse >= baseM.AppliesForResponse {
				t.Errorf("memoization did not reduce response applies: %d vs %d",
					memoM.AppliesForResponse, baseM.AppliesForResponse)
			}
			if tc.perResponse > 0 && memoM.AppliesForResponse > tc.perResponse*memoM.ResponsesSent {
				t.Errorf("%d response applies for %d responses, want at most %d each",
					memoM.AppliesForResponse, memoM.ResponsesSent, tc.perResponse)
			}
			if memoM.MemoizedOps == 0 {
				t.Error("nothing was memoized")
			}
		})
	}
}

func TestPruneReleasesDescriptors(t *testing.T) {
	_, plain := runWorkload(t, Options{Memoize: true}, 0)
	_, pruned := runWorkload(t, Options{Memoize: true, Prune: true}, 0)
	mPlain := plain.cluster.TotalMetrics()
	mPruned := pruned.cluster.TotalMetrics()
	if mPruned.RetainedOps >= mPlain.RetainedOps {
		t.Fatalf("pruning retained %d descriptors, plain retained %d",
			mPruned.RetainedOps, mPlain.RetainedOps)
	}
	// Pruning must not affect responses: both runs converged with all
	// operations done at all replicas.
	if !pruned.cluster.CheckConvergence().Converged {
		t.Fatal("pruned run did not converge")
	}
}

// TestIncrementalGossipEquivalentAndSmaller checks §10.4's claim on the
// gossip replicas send: the deltas alone carry the full state — every
// replica ends with the same done set, labels and stable set, which is
// what a full-state frame carries — and the whole run's traffic costs
// fewer bytes than the full-state frames of Fig. 7 as written (priced at
// every gossip tick of the same run) would have on their own.
func TestIncrementalGossipEquivalentAndSmaller(t *testing.T) {
	e := newTestEnv(t, 3, dtype.Log{}, Options{Memoize: true})
	var fullBytes uint64
	e.s.Every(e.g, func() {
		for _, r := range e.cluster.LocalReplicas() {
			fullBytes += 2 * uint64(r.FullGossipSize())
		}
	})
	const n = 30
	for i := 0; i < n; i++ {
		e.submit(fmt.Sprintf("c%d", i%3), logOp(i), nil, i%4 == 0)
		e.s.RunFor(2 * sim.Millisecond)
	}
	e.s.RunFor(800 * sim.Millisecond)
	if conv := e.cluster.CheckConvergence(); !conv.Converged || len(conv.Order) != n {
		t.Fatalf("convergence: %v (%d of %d ops)", conv.Reason, len(conv.Order), n)
	}
	for i, r := range e.cluster.LocalReplicas() {
		if got := len(r.Snapshot().Stable); got != n {
			t.Fatalf("replica %d: %d of %d ops stable", i, got, n)
		}
	}
	incrBytes := e.net.Stats().Bytes
	if incrBytes >= fullBytes {
		t.Fatalf("run bytes %d not smaller than full gossip's %d", incrBytes, fullBytes)
	}
	t.Logf("bytes: full gossip alone=%d whole run=%d (%.1f%%)",
		fullBytes, incrBytes, 100*float64(incrBytes)/float64(fullBytes))
}

// labelSink makes a label map escape as a gossip message's does.
var labelSink map[ops.ID]label.Label

// TestBuildDeltaAllocations pins what one gossip frame build allocates for
// a steady stream of label changes: the message's own label map, and
// nothing for the change log, which is trimmed in place as peers
// acknowledge it (and so never regrows either).
func TestBuildDeltaAllocations(t *testing.T) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	c := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: DefaultOptions()})
	r := c.Replica(0)
	ids := make([]ops.ID, 32)
	for i := range ids {
		ids[i] = ops.ID{Client: "c", Seq: uint64(i)}
		r.ids.rec(ids[i]).setLabelMin(label.Make(uint64(i+1), 0))
	}
	cycle := func() {
		base := r.logNext()
		for _, id := range ids {
			r.logChange(r.ids.get(id), logL)
		}
		if msg := r.buildDelta(base, r.logNext()); len(msg.L) != len(ids) {
			t.Fatalf("delta carries %d labels, want %d", len(msg.L), len(ids))
		}
		for i := 1; i < len(r.links); i++ {
			r.links[i].sent = r.logNext()
			r.ackLocked(&r.links[i], r.logNext())
		}
	}
	cycle()
	msgOnly := testing.AllocsPerRun(100, func() {
		labelSink = make(map[ops.ID]label.Label, len(ids))
		for _, id := range ids {
			labelSink[id] = r.ids.label(id)
		}
	})
	if got := testing.AllocsPerRun(100, cycle); got > msgOnly {
		t.Fatalf("a delta build allocates %.0f times, want at most the %.0f of its label map", got, msgOnly)
	}
}

func TestCommuteModeMatchesBaseOnSafeWorkload(t *testing.T) {
	// SafeUsers discipline on a Set: all mutators of the same element are
	// ordered by prev chains per element; queries ordered after the mutators
	// they must observe. Under this discipline commute mode must return the
	// same values as the base algorithm with zero response-time applies for
	// non-strict ops.
	run := func(opt Options) (map[ops.ID]string, ReplicaMetrics) {
		e := newTestEnv(t, 3, dtype.Set{}, opt)
		var all []*result
		lastMut := make(map[string]ops.ID) // per-element chain
		elems := []string{"a", "b", "c"}
		for i := 0; i < 24; i++ {
			elem := elems[i%3]
			var prev []ops.ID
			if last, ok := lastMut[elem]; ok {
				prev = []ops.ID{last}
			}
			var op dtype.Operator
			switch (i / 3) % 3 {
			case 0, 1:
				op = dtype.SetAdd{Elem: elem}
			default:
				op = dtype.SetRemove{Elem: elem}
			}
			res := e.submit(fmt.Sprintf("c%d", i%2), op, prev, false)
			lastMut[elem] = res.x.ID
			all = append(all, res)
			e.s.RunFor(2 * sim.Millisecond)
		}
		// Queries ordered after the relevant chains.
		for _, elem := range elems {
			all = append(all, e.submit("q", dtype.SetContains{Elem: elem}, []ops.ID{lastMut[elem]}, false))
		}
		e.s.RunFor(800 * sim.Millisecond)
		if !e.cluster.CheckConvergence().Converged {
			t.Fatal("no convergence")
		}
		results := make(map[ops.ID]string, len(all))
		for _, r := range all {
			if !r.done {
				t.Fatalf("op %v unanswered", r.x.ID)
			}
			results[r.x.ID] = fmt.Sprint(r.value)
		}
		return results, e.cluster.TotalMetrics()
	}
	baseRes, _ := run(Options{})
	commRes, commM := run(Options{Commute: true})
	if len(baseRes) == 0 || len(baseRes) != len(commRes) {
		t.Fatalf("response counts differ: %d vs %d", len(baseRes), len(commRes))
	}
	for id, v := range baseRes {
		if commRes[id] != v {
			t.Errorf("op %v: base %q, commute %q", id, v, commRes[id])
		}
	}
	if commM.AppliesForResponse != 0 {
		t.Errorf("commute mode recomputed %d applies at response time", commM.AppliesForResponse)
	}
	if commM.AppliesForCurrentState == 0 {
		t.Error("commute mode never applied to cs_r")
	}
}

func TestGossipLossDelaysButDoesNotBreakStrict(t *testing.T) {
	// Theorem 9.4 in miniature: cut all replica↔replica links during a fault
	// window; a strict op issued during the window is answered after the
	// window ends, within δ of the heal time.
	e := newTestEnv(t, 3, dtype.Counter{}, Options{})
	replicas := e.cluster.Nodes()
	e.net.PartitionBetween(replicas[:1], replicas[1:], false)
	e.net.PartitionBetween(replicas[1:2], replicas[2:], false)

	res := e.submit("c1", dtype.CtrRead{}, nil, true)
	e.s.RunFor(100 * sim.Millisecond)
	if res.done {
		t.Fatal("strict op answered during total gossip partition")
	}
	healAt := e.s.Now()
	e.net.PartitionBetween(replicas[:1], replicas[1:], true)
	e.net.PartitionBetween(replicas[1:2], replicas[2:], true)
	e.s.RunFor(200 * sim.Millisecond)
	if !res.done {
		t.Fatal("strict op never answered after heal")
	}
	// From the heal, the δ(x) bound applies with the request already at the
	// replica: ≤ d_f + 3·(g + d_g) plus one full gossip period of slack for
	// the round in progress.
	bound := e.df + 4*(e.g+e.dg)
	if got := res.at.Sub(healAt); got > bound {
		t.Fatalf("post-heal strict latency %v exceeds %v", got, bound)
	}
}

func TestReplicaCrashRetransmitRecovers(t *testing.T) {
	e := newTestEnv(t, 3, dtype.Counter{}, Options{})
	e.net.SetNodeDown(ReplicaNode(0), true)

	// The front end's first round-robin target is replica 0, which is down.
	res := e.submit("c3", dtype.CtrAdd{N: 2}, nil, false)
	e.s.RunFor(50 * sim.Millisecond)
	if res.done {
		t.Fatal("answered by a downed replica")
	}
	fe := e.cluster.FrontEnd("c3")
	if fe.Pending() != 1 {
		t.Fatalf("pending = %d", fe.Pending())
	}
	if n := fe.Retransmit(); n != 1 {
		t.Fatalf("retransmitted %d requests", n)
	}
	e.s.RunFor(100 * sim.Millisecond)
	if !res.done {
		t.Fatal("retransmission did not recover from replica crash")
	}
}

func TestDuplicateRequestsAreHarmless(t *testing.T) {
	e := newTestEnv(t, 3, dtype.Counter{}, Options{Memoize: true})
	fe := e.cluster.FrontEnd("c1")
	res := e.submit("c1", dtype.CtrAdd{N: 5}, nil, false)
	// Retransmit the same pending op to other replicas before the response.
	fe.Retransmit()
	fe.Retransmit()
	e.s.RunFor(500 * sim.Millisecond)
	if !res.done {
		t.Fatal("no response")
	}
	conv := e.cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("not converged: %s", conv.Reason)
	}
	if len(conv.Order) != 1 {
		t.Fatalf("duplicate requests produced %d ops, want 1", len(conv.Order))
	}
	var total dtype.Value
	r := e.submit("c1", dtype.CtrRead{}, nil, true)
	e.s.RunFor(300 * sim.Millisecond)
	total = r.value
	if total != int64(5) {
		t.Fatalf("counter = %v: duplicate was applied twice", total)
	}
}

func TestStrictEverywhereCountAndSnapshot(t *testing.T) {
	e := newTestEnv(t, 2, dtype.Counter{}, Options{})
	e.submit("c1", dtype.CtrAdd{N: 1}, nil, false)
	e.s.RunFor(300 * sim.Millisecond)
	r0 := e.cluster.Replica(0)
	if r0.StableEverywhereCount() != 1 {
		t.Fatalf("stable-everywhere = %d", r0.StableEverywhereCount())
	}
	snap := r0.Snapshot()
	if len(snap.Done) != 1 || len(snap.Stable) != 1 || snap.Pending != 0 || snap.Deferred != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.MaxStable.IsInf() {
		t.Fatal("maxStable not advanced")
	}
	if r0.ID() != 0 || r0.Node() != ReplicaNode(0) {
		t.Fatal("identity accessors wrong")
	}
}

func TestSingleReplicaClusterIsImmediatelyStable(t *testing.T) {
	e := newTestEnv(t, 1, dtype.Counter{}, Options{Memoize: true})
	start := e.s.Now()
	res := e.submit("c1", dtype.CtrRead{}, nil, true)
	e.s.RunFor(50 * sim.Millisecond)
	if !res.done {
		t.Fatal("no response")
	}
	if res.at.Sub(start) > 2*e.df {
		t.Fatalf("single-replica strict latency %v should be the round trip", res.at.Sub(start))
	}
}

func TestConfigValidationPanics(t *testing.T) {
	e := newTestEnv(t, 2, dtype.Counter{}, Options{})
	cases := map[string]func(){
		"zero replicas": func() {
			NewCluster(ClusterConfig{Replicas: 0, DataType: dtype.Counter{}, Network: e.net})
		},
		"65 replicas": func() {
			NewCluster(ClusterConfig{Replicas: 65, DataType: dtype.Counter{}, Network: e.net})
		},
		"65 replicas per shard": func() {
			NewKeyspace(KeyspaceConfig{Shards: 2, Replicas: 65, DataType: dtype.Counter{}, Network: e.net})
		},
		"65 peers": func() {
			NewReplica(ReplicaConfig{Peers: make([]transport.NodeID, 65), DataType: dtype.Counter{}, Network: e.net})
		},
		"nil data type": func() {
			NewCluster(ClusterConfig{Replicas: 1, Network: e.net})
		},
		"nil network": func() {
			NewCluster(ClusterConfig{Replicas: 1, DataType: dtype.Counter{}})
		},
		"bad replica id": func() {
			NewReplica(ReplicaConfig{ID: 5, Peers: []transport.NodeID{"a"}, DataType: dtype.Counter{}, Network: e.net})
		},
		"empty client": func() {
			NewFrontEnd(FrontEndConfig{Client: "", Replicas: e.cluster.Nodes(), Network: e.net})
		},
		"no replicas for fe": func() {
			NewFrontEnd(FrontEndConfig{Client: "x", Network: e.net})
		},
		"stick to unknown": func() {
			e.cluster.FrontEnd("c9").StickTo("nope")
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestFrontEndIdentifiers(t *testing.T) {
	e := newTestEnv(t, 2, dtype.Counter{}, Options{})
	fe := e.cluster.FrontEnd("u")
	x1 := fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	x2 := fe.Submit(dtype.CtrAdd{N: 2}, nil, false, nil)
	if x1.ID == x2.ID {
		t.Fatal("duplicate ids")
	}
	if x1.ID.Client != "u" || x2.ID.Seq != x1.ID.Seq+1 {
		t.Fatalf("id scheme wrong: %v %v", x1.ID, x2.ID)
	}
	if fe.Client() != "u" || fe.Node() != FrontEndNode("u") {
		t.Fatal("identity accessors wrong")
	}
	if last, ok := fe.LastID(); !ok || last != x2.ID {
		t.Fatal("LastID wrong")
	}
	if h := fe.History(); len(h) != 2 || h[0] != x1.ID {
		t.Fatalf("history = %v", h)
	}
	e.s.RunFor(100 * sim.Millisecond)
	req, resp := fe.Stats()
	if req != 2 || resp != 2 {
		t.Fatalf("stats = %d/%d", req, resp)
	}
	if fe.Pending() != 0 {
		t.Fatal("pending should be drained")
	}
	// Same front end instance on repeat lookup.
	if e.cluster.FrontEnd("u") != fe {
		t.Fatal("FrontEnd not memoized per client")
	}
}

func TestFrontEndLastIDEmpty(t *testing.T) {
	e := newTestEnv(t, 2, dtype.Counter{}, Options{})
	fe := e.cluster.FrontEnd("empty")
	if _, ok := fe.LastID(); ok {
		t.Fatal("LastID on empty history")
	}
}

func TestUnknownPayloadIgnored(t *testing.T) {
	e := newTestEnv(t, 2, dtype.Counter{}, Options{})
	e.net.Send("x", ReplicaNode(0), "garbage")
	e.net.Send("x", FrontEndNode("c"), 42)
	e.cluster.FrontEnd("c") // register after send: message dropped anyway
	e.s.RunFor(50 * sim.Millisecond)
	// Nothing to assert beyond "no panic": replicas ignore junk.
}

func TestSelfAndMalformedGossipIgnored(t *testing.T) {
	e := newTestEnv(t, 2, dtype.Counter{}, Options{})
	r0 := e.cluster.Replica(0)
	// Self gossip and out-of-range sender ids must be ignored.
	r0.handleMessage(transport.Message{Payload: GossipMsg{From: 0}})
	r0.handleMessage(transport.Message{Payload: GossipMsg{From: 99}})
	r0.handleMessage(transport.Message{Payload: GossipMsg{From: -1}})
	if len(r0.Snapshot().Done) != 0 {
		t.Fatal("malformed gossip changed state")
	}
}

// TestGossipByteAccountingGrowsWithHistory checks that the network's byte
// accounting follows the history: every new operation's gossip adds bytes,
// and a quiescent cluster adds none.
func TestGossipByteAccountingGrowsWithHistory(t *testing.T) {
	e := newTestEnv(t, 2, dtype.Counter{}, Options{})
	prev := e.net.Stats().Bytes
	for i := 0; i < 5; i++ {
		e.submit("c", dtype.CtrAdd{N: 1}, nil, false)
		e.s.RunFor(20 * sim.Millisecond)
		if got := e.net.Stats().Bytes; got <= prev {
			t.Fatalf("operation %d added no bytes (%d)", i, got)
		}
		prev = e.net.Stats().Bytes
	}
	e.s.RunFor(100 * sim.Millisecond)
	if got := e.net.Stats().Bytes; got != prev {
		t.Fatalf("quiescent cluster sent %d more bytes", got-prev)
	}
}

func TestEstimateSize(t *testing.T) {
	x := ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "c", Seq: 1}, []ops.ID{{Client: "c", Seq: 0}}, false)
	if EstimateSize(RequestMsg{Op: x}) <= EstimateSize(ResponseMsg{}) {
		t.Error("request with prev should outweigh a response")
	}
	g := GossipMsg{R: []ops.Operation{x}, D: []ops.ID{x.ID}, S: []ops.ID{x.ID},
		L: map[ops.ID]label.Label{x.ID: label.Make(1, 0)}}
	if EstimateSize(g) <= EstimateSize(RequestMsg{Op: x}) {
		t.Error("gossip should outweigh a single request")
	}
	if EstimateSize("junk") <= 0 {
		t.Error("unknown payloads still have header cost")
	}
}

// TestEnsureSortedMatchesFullSort drives the local total order through
// random appends (most labeled above everything seen, some interleaving
// below, as gossiped labels do), label lowerings of done operations and
// memoized-prefix advances, and after each ensureSorted requires the
// unsolid suffix to be exactly the label-ordered arrangement of the same
// operations — the append-only merge path and the full re-sort alike —
// and the index it reports (where the suffix cache is cut) to be exactly
// the first position at which the old and new orders differ.
func TestEnsureSortedMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := &Replica{ids: newIDTable()}
	used := make(map[label.Label]bool)
	fresh := func(lo, hi uint64) label.Label {
		for {
			l := label.Make(lo+uint64(rng.Int63n(int64(hi-lo+1))), label.ReplicaID(rng.Intn(3)))
			if !used[l] {
				used[l] = true
				return l
			}
		}
	}
	top := uint64(10)
	for step := 0; step < 5000; step++ {
		switch k := rng.Intn(10); {
		case k < 6: // a newly done operation
			id := ops.ID{Client: "c", Seq: uint64(step)}
			l := fresh(top+1, top+3)
			if k == 0 {
				l = fresh(top-8, top) // a peer's label from a few message delays ago
			}
			if l.Seq > top {
				top = l.Seq
			}
			r.ids.rec(id).setLabelMin(l)
			r.doneSeq = append(r.doneSeq, id)
		case k == 6 && len(r.doneSeq) > r.memoized: // setLabelMin on a done op
			id := r.doneSeq[r.memoized+rng.Intn(len(r.doneSeq)-r.memoized)]
			if cur := r.ids.label(id); cur.Seq > 1 {
				r.ids.get(id).setLabelMin(fresh(cur.Seq/2, cur.Seq-1))
				r.seqDirty = true
			}
		case k == 7: // advanceMemo fixing part of the sorted prefix
			r.ensureSorted()
			r.memoized += rng.Intn(len(r.doneSeq) - r.memoized + 1)
		default:
			before := append([]ops.ID(nil), r.doneSeq...)
			moved := r.ensureSorted()
			firstDiff := len(before)
			for i := range before {
				if before[i] != r.doneSeq[i] {
					firstDiff = i
					break
				}
			}
			if moved != firstDiff {
				t.Fatalf("step %d: ensureSorted reported first moved index %d, orders first differ at %d", step, moved, firstDiff)
			}
			want := append([]ops.ID(nil), before[r.memoized:]...)
			sort.Slice(want, func(i, j int) bool { return r.ids.label(want[i]).Less(r.ids.label(want[j])) })
			for i := range before[:r.memoized] {
				if r.doneSeq[i] != before[i] {
					t.Fatalf("step %d: memoized position %d changed", step, i)
				}
			}
			for i, id := range want {
				if got := r.doneSeq[r.memoized+i]; got != id {
					t.Fatalf("step %d: suffix position %d holds %v (label %v), want %v (label %v)",
						step, i, got, r.ids.label(got), id, r.ids.label(id))
				}
			}
		}
	}
}
