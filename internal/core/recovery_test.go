package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/spec"
	"esds/internal/transport"
)

// newRecoveryEnv builds a 3-replica Log cluster with stable stores.
func newRecoveryEnv(t *testing.T, opt Options) (*testEnv, []*MemStableStore) {
	t.Helper()
	return newRecoveryEnvOf(t, dtype.Log{}, opt)
}

// newRecoveryEnvOf is newRecoveryEnv over an arbitrary data type.
func newRecoveryEnvOf(t *testing.T, dt dtype.DataType, opt Options) (*testEnv, []*MemStableStore) {
	t.Helper()
	s := sim.New(1)
	df := 1 * sim.Millisecond
	dg := 2 * sim.Millisecond
	g := 5 * sim.Millisecond
	isReplica := func(id transport.NodeID) bool {
		return len(id) > 8 && id[:8] == "replica:"
	}
	net := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica, transport.FixedLatency(df), transport.FixedLatency(dg)),
		Sizer:   EstimateSize,
	})
	stores := []*MemStableStore{NewMemStableStore(), NewMemStableStore(), NewMemStableStore()}
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dt,
		Network:  net,
		Options:  opt,
		Stores:   []StableStore{stores[0], stores[1], stores[2]},
	})
	cluster.StartSimGossip(s, g)
	return &testEnv{s: s, net: net, cluster: cluster, df: df, dg: dg, g: g}, stores
}

func TestCrashWipesAndRecoverRebuilds(t *testing.T) {
	e, _ := newRecoveryEnv(t, Options{Memoize: true})
	for i := 0; i < 10; i++ {
		e.submit(fmt.Sprintf("c%d", i%2), dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	e.s.RunFor(200 * sim.Millisecond)

	r0 := e.cluster.Replica(0)
	before := r0.Snapshot()
	if len(before.Done) != 10 {
		t.Fatalf("pre-crash done = %d", len(before.Done))
	}

	// Crash: memory gone.
	e.net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	if got := len(r0.Snapshot().Done); got != 0 {
		t.Fatalf("post-crash done = %d, want 0", got)
	}
	e.s.RunFor(50 * sim.Millisecond)

	// Recover: rejoin, fetch every peer's state, resume.
	e.net.SetNodeDown(r0.Node(), false)
	r0.Recover()
	if !r0.Recovering() {
		t.Fatal("replica not in recovery after Recover")
	}
	e.s.RunFor(200 * sim.Millisecond)
	if r0.Recovering() {
		t.Fatal("recovery never completed")
	}

	after := r0.Snapshot()
	if len(after.Done) != 10 {
		t.Fatalf("post-recovery done = %d, want 10", len(after.Done))
	}
	// §9.3 correctness condition: every recovered label ≤ its pre-crash
	// label.
	for id, l := range after.Labels {
		if old, ok := before.Labels[id]; ok && old.Less(l) {
			t.Fatalf("label of %v rose across crash: %v -> %v", id, old, l)
		}
	}
	conv := e.cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("cluster did not reconverge: %s", conv.Reason)
	}
	t.Run("by construction", testCrashResetsByConstruction)
}

// testCrashResetsByConstruction drives a replica through every kind of
// volatile state — a memoized and pruned history, a deferred id, a queued
// relay, an open range round, a resize freeze and a pending strict
// operation — and requires Crash to leave exactly the volatile state of a
// freshly constructed replica, but for the change log's epoch.
func testCrashResetsByConstruction(t *testing.T) {
	dt := dtype.NewKeyed(dtype.Counter{})
	e, _ := newRecoveryEnvOf(t, dt, DefaultOptions())
	for i := 0; i < 8; i++ {
		e.submit("c", dtype.KeyedOp{Key: "k", Op: dtype.CtrAdd{N: 1}}, nil, false)
	}
	e.s.RunFor(100 * sim.Millisecond)
	r0 := e.cluster.Replica(0)
	add := func(client string, strict bool) ops.Operation {
		return ops.New(dtype.KeyedOp{Key: "k", Op: dtype.CtrAdd{N: 1}}, ops.ID{Client: client}, nil, strict)
	}
	r0.handleMessage(transport.Message{Payload: RequestMsg{Op: add("strict", true)}})
	r0.mu.Lock()
	l := r0.links[1]
	r0.mu.Unlock()
	// From replica 1: a descriptor to relay, and an id done there whose
	// descriptor and label have not arrived.
	r0.handleMessage(transport.Message{Payload: GossipMsg{From: 1, Epoch: l.epoch, Base: l.mark, Seq: l.mark + 4,
		Clients: []string{"ghost"}, R: []ops.Operation{add("relayed", false)}, D: []IDRun{{Client: 0, N: 1}}}})
	r0.handleMessage(transport.Message{Payload: FreezeKeysMsg{Epoch: 1, OldShards: 1, NewShards: 2, Nonce: 1, ReplyTo: "ctl:test"}})
	r0.CatchUpRange()

	r0.mu.Lock()
	for what, held := range map[string]bool{
		"memoized":        r0.memoized > 0,
		"pruned":          r0.retainedN < r0.ids.n,
		"deferred":        len(r0.deferredQueue) > 0,
		"relay":           len(r0.relayQueue) > 0,
		"range round":     r0.rangeNonce != 0,
		"freeze":          len(r0.resizes) > 0,
		"pending strict":  r0.strictLive > 0 && len(r0.pendingQueue) > 0,
		"change log held": len(r0.glog) > 0,
	} {
		if !held {
			t.Errorf("set-up: no %s state before the crash", what)
		}
	}
	next, nonces, metrics := r0.logNext(), r0.rangeSeq, r0.metrics
	r0.mu.Unlock()

	r0.Crash()
	fresh := NewReplica(ReplicaConfig{ID: 0, Peers: e.cluster.Nodes(), DataType: dt,
		Network: transport.NewSimNet(sim.New(1), transport.SimNetConfig{}), Options: DefaultOptions()})
	r0.mu.Lock()
	defer r0.mu.Unlock()
	if r0.epoch != next || !r0.crashed || r0.rangeSeq != nonces || r0.metrics != metrics {
		t.Fatalf("crash reset what survives: epoch %d (log ended at %d), crashed %v, range nonces %d → %d",
			r0.epoch, next, r0.crashed, nonces, r0.rangeSeq)
	}
	unepoch := func(v volatile) reflect.Value {
		v.epoch, v.logBase, v.links = 0, 0, slices.Clone(v.links)
		for i := range v.links {
			v.links[i].sent, v.links[i].acked = 0, 0
		}
		p := reflect.New(reflect.TypeOf(v)).Elem()
		p.Set(reflect.ValueOf(v))
		return p
	}
	got, want := unepoch(r0.volatile), unepoch(fresh.volatile)
	for i := 0; i < got.NumField(); i++ {
		field := func(v reflect.Value) any {
			f := v.Field(i)
			return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
		}
		if !reflect.DeepEqual(field(got), field(want)) {
			t.Errorf("after Crash, %s = %+v, a new replica's is %+v", got.Type().Field(i).Name, field(got), field(want))
		}
	}
}

func TestRecoveryPreservesUngossipedLocalLabels(t *testing.T) {
	// The hard §9.3 case: an operation labelled ONLY at the crashing
	// replica, never gossiped out. Without stable storage its label would be
	// regenerated (possibly higher); with it, the persisted label is reused.
	e, stores := newRecoveryEnv(t, Options{Memoize: true})
	fe := e.cluster.FrontEnd("c")
	fe.StickTo(ReplicaNode(0))
	r0 := e.cluster.Replica(0)

	// Cut ALL outbound links from r0 before the request — gossip AND the
	// response path — so r0's label for x never leaves and the front end
	// really does have to retransmit after the crash.
	nodes := e.cluster.Nodes()
	e.net.SetLinkDown(nodes[0], nodes[1], true)
	e.net.SetLinkDown(nodes[0], nodes[2], true)
	e.net.SetLinkDown(nodes[0], FrontEndNode("c"), true)
	x := fe.Submit(dtype.LogAppend{Entry: "lonely"}, nil, false, nil)
	e.s.RunFor(20 * sim.Millisecond)
	preLabel := r0.Snapshot().Labels[x.ID]
	if preLabel.IsInf() {
		t.Fatal("op not labelled at r0")
	}
	if got := stores[0].Labels()[x.ID]; got != preLabel {
		t.Fatalf("stable store holds %v, replica assigned %v", got, preLabel)
	}

	// Crash r0, heal links, recover.
	e.net.SetNodeDown(nodes[0], true)
	r0.Crash()
	e.net.SetLinkDown(nodes[0], nodes[1], false)
	e.net.SetLinkDown(nodes[0], nodes[2], false)
	e.net.SetLinkDown(nodes[0], FrontEndNode("c"), false)
	e.s.RunFor(20 * sim.Millisecond)
	e.net.SetNodeDown(nodes[0], false)
	r0.Recover()
	e.s.RunFor(100 * sim.Millisecond)

	// The front end retransmits the lost request.
	fe.Retransmit()
	e.s.RunFor(300 * sim.Millisecond)

	post := r0.Snapshot().Labels[x.ID]
	if post != preLabel {
		t.Fatalf("recovered label %v != persisted pre-crash label %v", post, preLabel)
	}
	if !e.cluster.CheckConvergence().Converged {
		t.Fatal("no convergence after recovery")
	}
}

func TestRecoveringReplicaDoesNotAnswer(t *testing.T) {
	e, _ := newRecoveryEnv(t, Options{})
	r0 := e.cluster.Replica(0)
	nodes := e.cluster.Nodes()

	// Crash and recover r0 while one peer is unreachable: the §9.3 barrier
	// cannot be met, so r0 must not process new requests.
	e.net.SetNodeDown(nodes[1], true)
	r0.Crash()
	r0.Recover()
	e.s.RunFor(100 * sim.Millisecond)
	if !r0.Recovering() {
		t.Fatal("recovery completed despite unreachable peer")
	}

	fe := e.cluster.FrontEnd("c")
	fe.StickTo(ReplicaNode(0))
	var answered bool
	fe.Submit(dtype.LogAppend{Entry: "x"}, nil, false, func(Response) { answered = true })
	e.s.RunFor(100 * sim.Millisecond)
	if answered {
		t.Fatal("recovering replica answered a request")
	}

	// Peer returns: recovery completes, request drains. RetryRecovery
	// re-asks only the peer whose answer is missing, keeping node2's.
	e.net.SetNodeDown(nodes[1], false)
	r0.RetryRecovery()
	e.s.RunFor(300 * sim.Millisecond)
	if r0.Recovering() {
		t.Fatal("recovery stuck after peer healed")
	}
	if !answered {
		t.Fatal("request not answered after recovery")
	}

	// Once recovered, further retries are no-ops: no new recovery round
	// starts, the replica keeps serving.
	r0.RetryRecovery()
	e.s.RunFor(100 * sim.Millisecond)
	if r0.Recovering() {
		t.Fatal("RetryRecovery restarted a completed recovery")
	}
}

func TestCrashedReplicaIgnoresTraffic(t *testing.T) {
	e, _ := newRecoveryEnv(t, Options{})
	r0 := e.cluster.Replica(0)
	r0.Crash()
	// Messages arriving at a crashed replica (e.g. in-flight before the
	// crash was modelled on the network) must be ignored.
	r0.handleMessage(transport.Message{Payload: RequestMsg{Op: ops.New(dtype.LogAppend{Entry: "z"}, ops.ID{Client: "c", Seq: 0}, nil, false)}})
	r0.handleMessage(transport.Message{Payload: GossipMsg{From: 1}})
	r0.handleRangeRequest(RangeRequestMsg{From: 1, Nonce: 1})
	if got := len(r0.Snapshot().Done); got != 0 {
		t.Fatalf("crashed replica processed traffic: %d done", got)
	}
	if r0.Metrics().RangeServed != 0 {
		t.Fatal("crashed replica served a range request")
	}
	r0.SendGossip() // no-op
	if r0.Metrics().GossipSent != 0 {
		t.Fatal("crashed replica gossiped")
	}
}

func TestStrictSafetyAcrossCrashRecovery(t *testing.T) {
	// End-to-end: workload, crash+recover mid-stream, more workload, then
	// Theorem 5.8 on the converged order.
	e, _ := newRecoveryEnv(t, Options{Memoize: true})
	var all []*result
	submit := func(i int, strict bool) {
		res := e.submit(fmt.Sprintf("c%d", i%2), dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, strict)
		all = append(all, res)
	}
	for i := 0; i < 8; i++ {
		submit(i, i%4 == 0)
		e.s.RunFor(5 * sim.Millisecond)
	}
	r1 := e.cluster.Replica(1)
	e.net.SetNodeDown(r1.Node(), true)
	r1.Crash()
	e.s.RunFor(30 * sim.Millisecond)
	e.net.SetNodeDown(r1.Node(), false)
	r1.Recover()
	for i := 8; i < 16; i++ {
		submit(i, i%4 == 0)
		e.s.RunFor(5 * sim.Millisecond)
	}
	// Retransmit anything lost in the crash, then drain.
	for i := 0; i < 2; i++ {
		e.cluster.FrontEnd(fmt.Sprintf("c%d", i)).Retransmit()
	}
	e.s.RunFor(2 * sim.Second)

	conv := e.cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("no convergence: %s", conv.Reason)
	}
	requested := make([]ops.Operation, 0, len(all))
	strictResponses := make(map[ops.ID]dtype.Value)
	for _, o := range all {
		if !o.done {
			t.Fatalf("op %v unanswered", o.x.ID)
		}
		requested = append(requested, o.x)
		if o.x.Strict {
			strictResponses[o.x.ID] = o.value
		}
	}
	if err := spec.ExplainStrictResponses(dtype.Log{}, requested, conv.Order, strictResponses); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverWholeClusterFromStores: every replica crashes with full memory
// loss and recovers with nothing but its own journal. Each one's barrier
// waits on peers that are themselves recovering, so a recovering replica
// must still answer range requests (from its reloaded state) — a server
// that refused until it had resumed would leave all three waiting on each
// other forever. Every acknowledged operation lives in the journal of the
// replica that labeled it, so nothing may be lost.
func TestRecoverWholeClusterFromStores(t *testing.T) {
	e, _ := newRecoveryEnv(t, DefaultOptions())
	defer e.cluster.Close()
	var all []*result
	for i := 0; i < 12; i++ {
		all = append(all, e.submit(fmt.Sprintf("c%d", i%3), dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, i%4 == 0))
		e.s.RunFor(3 * sim.Millisecond)
	}
	e.s.RunFor(200 * sim.Millisecond)
	for _, o := range all {
		if !o.done {
			t.Fatalf("setup: op %v never acknowledged", o.x.ID)
		}
	}

	for _, r := range e.cluster.LocalReplicas() {
		e.net.SetNodeDown(r.Node(), true)
		r.Crash()
	}
	e.s.RunFor(30 * sim.Millisecond)
	for _, r := range e.cluster.LocalReplicas() {
		e.net.SetNodeDown(r.Node(), false)
		r.Recover()
	}
	e.s.RunFor(300 * sim.Millisecond)

	for i, r := range e.cluster.LocalReplicas() {
		if r.Recovering() {
			t.Fatalf("replica %d never resumed: recovering peers must answer each other", i)
		}
	}
	post := e.submit("post", dtype.LogAppend{Entry: "post"}, nil, true)
	e.s.RunFor(500 * sim.Millisecond)
	if !post.done {
		t.Fatal("restarted cluster never answered a strict operation")
	}
	conv := e.cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("no convergence after whole-cluster restart: %s", conv.Reason)
	}
	inOrder := make(map[ops.ID]struct{}, len(conv.Order))
	for _, id := range conv.Order {
		inOrder[id] = struct{}{}
	}
	for _, o := range append(all, post) {
		if _, ok := inOrder[o.x.ID]; !ok {
			t.Fatalf("acknowledged op %v missing after whole-cluster restart", o.x.ID)
		}
	}
	requireNoFaults(t, e.cluster)
}

// failingStore is a StableStore whose writes fail on demand.
type failingStore struct {
	MemStableStore
	fail bool
}

func (s *failingStore) PersistLabel(id ops.ID, l label.Label) error {
	if s.fail {
		return fmt.Errorf("disk full")
	}
	return s.MemStableStore.PersistLabel(id, l)
}

// PersistOp is the call the labeling path actually makes (descriptor +
// label, DESIGN.md §10); it must fail alongside PersistLabel for the
// fail-stop test to exercise the real write path.
func (s *failingStore) PersistOp(x ops.Operation, l label.Label) error {
	if s.fail {
		return fmt.Errorf("disk full")
	}
	return s.MemStableStore.PersistOp(x, l)
}

// TestStoreFailureStopsLabelingNotService: when the stable store cannot
// persist a label, the replica must stop labeling (an unpersisted label
// could be re-issued after a crash, splitting the order) but keep merging
// gossip — and the cluster keeps serving through its healthy replicas via
// front-end retransmission.
func TestStoreFailureStopsLabelingNotService(t *testing.T) {
	s := sim.New(1)
	isReplica := func(id transport.NodeID) bool {
		return len(id) > 8 && id[:8] == "replica:"
	}
	net := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica,
			transport.FixedLatency(1*sim.Millisecond), transport.FixedLatency(2*sim.Millisecond)),
		Sizer: EstimateSize,
	})
	broken := &failingStore{fail: true}
	broken.MemStableStore = *NewMemStableStore()
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Log{},
		Network:  net,
		Options:  Options{Memoize: true},
		Stores:   []StableStore{broken, NewMemStableStore(), NewMemStableStore()},
	})
	cluster.StartSimGossip(s, 5*sim.Millisecond)
	defer cluster.Close()

	fe := cluster.FrontEnd("c") // round-robin starts at replica 0 (broken store)
	s.Every(40*sim.Millisecond, func() { fe.Retransmit() })
	var answered bool
	fe.Submit(dtype.LogAppend{Entry: "x"}, nil, false, func(Response) { answered = true })
	s.RunUntil(sim.Time(1 * sim.Second))

	if !answered {
		t.Fatal("operation never answered: retransmission did not route around the store-failed replica")
	}
	r0 := cluster.Replica(0)
	var rf *ReplicaFault
	if !errorsAsAny(r0.Faults(), &rf) || rf.Code != FaultStoreFailed {
		t.Fatalf("faults = %v, want FaultStoreFailed", r0.Faults())
	}
	// The op was labeled elsewhere; r0 still merged it through gossip.
	if got := len(r0.Snapshot().Done); got != 1 {
		t.Fatalf("store-failed replica done = %d, want 1 (gossip merge must keep working)", got)
	}
	if conv := cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("no convergence: %s", conv.Reason)
	}
}

// TestRecoveredLabelVoidedBelowDoneMax pins the store-label race: a replica
// crashes after persisting an operation's label but before the response (or
// any gossip) escapes, recovers while a LATER operation becomes stable, and
// only then sees the front end retransmit the first one. Re-admitting the
// op at its persisted label after a peer memoized past it would fault
// (FaultMemoOrderViolation); full-state gossip once forced the label to be
// voided for a fresh one instead. Now the reloaded label enters label_r and
// the change log before anything the replica reports done after the crash,
// and peers merge its log in order, so no replica can find the later
// operation stable before it knows the earlier label: A keeps its label
// (§9.3: ≤ the pre-crash one) and sorts first everywhere. Deterministic
// companion to the chaos-matrix pin (seed 26, snapshot cell).
func TestRecoveredLabelVoidedBelowDoneMax(t *testing.T) {
	e, stores := newRecoveryEnv(t, Options{Memoize: true})
	r0 := e.cluster.Replica(0)
	feA := e.cluster.FrontEnd("a")
	feA.StickTo(ReplicaNode(0))

	// A reaches r0 at t=1ms and is labelled l_A=(1,0); the response is in
	// flight back when r0 crashes at t=1.5ms, so the label survives only in
	// r0's stable store (gossip first fires at t=5ms — nothing escaped).
	resA := &result{}
	resA.x = feA.Submit(dtype.LogAppend{Entry: "A"}, nil, false, func(r Response) {
		resA.value = r.Value
		resA.done = true
	})
	e.s.RunFor(1500 * sim.Microsecond)
	e.net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	if len(stores[0].Labels()) != 1 {
		t.Fatalf("store holds %d labels, want 1 (A's)", len(stores[0].Labels()))
	}
	preLabel := stores[0].Labels()[resA.x.ID]
	if resA.done {
		t.Fatal("A answered despite the crash window")
	}

	// B is labelled l_B=(1,1) > l_A at r1 while r0 is down.
	feB := e.cluster.FrontEnd("b")
	feB.StickTo(ReplicaNode(1))
	resB := &result{}
	resB.x = feB.Submit(dtype.LogAppend{Entry: "B"}, nil, false, func(r Response) {
		resB.value = r.Value
		resB.done = true
	})
	e.s.RunFor(40 * sim.Millisecond)

	// r0 recovers: A's label and descriptor are reloaded from the store,
	// and B arrives from the peers.
	e.net.SetNodeDown(r0.Node(), false)
	r0.Recover()
	e.s.RunFor(60 * sim.Millisecond)

	// Only now does the front end retransmit A.
	feA.Retransmit()
	e.s.RunFor(300 * sim.Millisecond)

	for i := 0; i < 3; i++ {
		if faults := e.cluster.Replica(i).Faults(); len(faults) != 0 {
			t.Fatalf("replica %d recorded faults: %v", i, faults)
		}
	}
	if !resA.done {
		t.Fatal("A never answered after retransmission")
	}
	if !resB.done {
		t.Fatal("B never answered")
	}
	conv := e.cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("no convergence: %s", conv.Reason)
	}
	// A kept its persisted label, below B's, and every replica agrees on
	// the order [A, B].
	if len(conv.Order) != 2 || conv.Order[0] != resA.x.ID || conv.Order[1] != resB.x.ID {
		t.Fatalf("order = %v, want [A B]", conv.Order)
	}
	if got := r0.Snapshot().Labels[resA.x.ID]; got != preLabel {
		t.Fatalf("A's label %v, want its pre-crash label %v", got, preLabel)
	}
}

func TestMemStableStore(t *testing.T) {
	st := NewMemStableStore()
	id := ops.ID{Client: "c", Seq: 1}
	if err := st.PersistLabel(id, label.Make(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistLabel(id, label.Make(3, 0)); err != nil { // overwrite
		t.Fatal(err)
	}
	got := st.Labels()
	if len(got) != 1 || got[id] != label.Make(3, 0) {
		t.Fatalf("labels = %v", got)
	}
	// Returned map is a copy.
	got[id] = label.Make(99, 0)
	if st.Labels()[id] != label.Make(3, 0) {
		t.Fatal("Labels aliases internal state")
	}

	// Descriptor, resize, and key-index persistence mirror FileStableStore.
	x := ops.Operation{Op: dtype.LogAppend{Entry: "e"}, ID: ops.ID{Client: "d", Seq: 2}}
	if err := st.PersistOp(x, label.Make(4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistOp(x, label.Make(6, 1)); err != nil { // re-label, same descriptor
		t.Fatal(err)
	}
	if xs := st.Ops(); len(xs) != 1 || xs[0].ID != x.ID {
		t.Fatalf("ops = %+v", xs)
	}
	if st.Labels()[x.ID] != label.Make(6, 1) {
		t.Fatalf("op label = %v, want re-labeled value", st.Labels()[x.ID])
	}
	if err := st.PersistResize(ResizeRecord{Epoch: 1, OldShards: 1, NewShards: 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.PersistResize(ResizeRecord{Epoch: 1, OldShards: 1, NewShards: 2, Complete: true}); err != nil {
		t.Fatal(err)
	}
	if rs := st.Resizes(); len(rs) != 1 || !rs[0].Complete {
		t.Fatalf("resizes = %+v, want single complete epoch-1 record", rs)
	}
	if err := st.PersistKey(x.ID, "k"); err != nil {
		t.Fatal(err)
	}
	if ks := st.Keys(); len(ks) != 1 || ks[x.ID] != "k" {
		t.Fatalf("keys = %v", ks)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
}
