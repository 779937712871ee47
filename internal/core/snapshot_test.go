package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// pruneOptions is the production configuration whose recovery story state
// transfer exists for: memoized and pruned.
func pruneOptions() Options {
	return Options{Memoize: true, Prune: true}
}

// drainUntilPruned runs the simulation until every replica has released
// every descriptor (all ops memoized + stable everywhere), failing the test
// if that never happens: the precondition of every "descriptors are gone
// everywhere" scenario.
func drainUntilPruned(t *testing.T, e *testEnv) {
	t.Helper()
	for i := 0; i < 100; i++ {
		e.s.RunFor(20 * sim.Millisecond)
		retained := 0
		for _, r := range e.cluster.LocalReplicas() {
			retained += r.Metrics().RetainedOps
		}
		if retained == 0 {
			return
		}
	}
	t.Fatalf("descriptors never fully pruned: %d retained", e.cluster.TotalMetrics().RetainedOps)
}

// requireNoFaults asserts no replica recorded a fault.
func requireNoFaults(t *testing.T, c *Cluster) {
	t.Helper()
	if faults := c.Faults(); len(faults) > 0 {
		t.Fatalf("replica faults recorded: %v", faults)
	}
}

// TestSnapshotRecoveryAfterPruning is the core prune×recovery composition
// test: every descriptor is pruned at every replica before the crash, so
// descriptor replay alone cannot restore the crashed replica — only the
// snapshot transfer can.
func TestSnapshotRecoveryAfterPruning(t *testing.T) {
	e, stores := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	for i := 0; i < 10; i++ {
		e.submit(fmt.Sprintf("c%d", i%2), dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	drainUntilPruned(t, e)

	r0 := e.cluster.Replica(0)
	e.net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	e.s.RunFor(30 * sim.Millisecond)
	e.net.SetNodeDown(r0.Node(), false)
	r0.Recover()
	e.s.RunFor(300 * sim.Millisecond)

	if r0.Recovering() {
		t.Fatal("recovery never completed")
	}
	m := r0.Metrics()
	if m.SnapshotsInstalled == 0 {
		t.Fatalf("no snapshot installed: %+v", m)
	}
	// The durable journal replays the descriptors r0 labeled itself
	// (DESIGN.md §10); the snapshot must seed at least the rest — ops
	// labeled at peers, whose descriptors were pruned everywhere. It seeds
	// the replayed ones too: a recovering replica learns done-ness only
	// from its range answers, never from gossip deltas that predate them.
	if want := 10 - len(stores[0].Ops()); int(m.SnapshotOpsSeeded) < want {
		t.Fatalf("seeded %d ops from snapshots, want at least %d (journal replayed %d)",
			m.SnapshotOpsSeeded, want, len(stores[0].Ops()))
	}
	snap := r0.Snapshot()
	if len(snap.Done) != 10 {
		t.Fatalf("post-recovery done = %d, want 10", len(snap.Done))
	}
	if snap.Memoized != 10 {
		t.Fatalf("post-recovery memoized = %d, want 10", snap.Memoized)
	}
	conv := e.cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("no convergence after snapshot recovery: %s", conv.Reason)
	}
	requireNoFaults(t, e.cluster)

	// The recovered replica answers strict reads with the full history, even
	// though it never saw a single descriptor of it.
	fe := e.cluster.FrontEnd("reader")
	fe.StickTo(ReplicaNode(0))
	var got dtype.Value
	fe.Submit(dtype.LogRead{}, nil, true, func(r Response) { got = r.Value })
	e.s.RunFor(500 * sim.Millisecond)
	s := fmt.Sprint(got)
	if strings.Count(s, "|") != 9 {
		t.Fatalf("strict read after recovery = %q, want all 10 entries", s)
	}
}

// TestSnapshotRecoveryContinuesService checks the recovered replica is a
// full citizen again: it labels new operations, participates in stability,
// and the whole trace satisfies Theorem 5.8.
func TestSnapshotRecoveryContinuesService(t *testing.T) {
	e, _ := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	var all []*result
	for i := 0; i < 8; i++ {
		all = append(all, e.submit(fmt.Sprintf("c%d", i%2), dtype.LogAppend{Entry: fmt.Sprintf("pre%d", i)}, nil, i%4 == 0))
		e.s.RunFor(3 * sim.Millisecond)
	}
	drainUntilPruned(t, e)

	r0 := e.cluster.Replica(0)
	e.net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	e.s.RunFor(20 * sim.Millisecond)
	e.net.SetNodeDown(r0.Node(), false)
	r0.Recover()
	e.s.RunFor(200 * sim.Millisecond)

	fe := e.cluster.FrontEnd("post")
	fe.StickTo(ReplicaNode(0))
	for i := 0; i < 6; i++ {
		res := &result{}
		res.x = fe.Submit(dtype.LogAppend{Entry: fmt.Sprintf("post%d", i)}, nil, i%3 == 0, func(r Response) {
			res.value = r.Value
			res.done = true
		})
		all = append(all, res)
		e.s.RunFor(5 * sim.Millisecond)
	}
	e.s.RunFor(2 * sim.Second)

	conv := e.cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("no convergence: %s", conv.Reason)
	}
	if len(conv.Order) != len(all) {
		t.Fatalf("order has %d ops, submitted %d", len(conv.Order), len(all))
	}
	for _, o := range all {
		if !o.done {
			t.Fatalf("op %v never answered", o.x.ID)
		}
	}
	requireNoFaults(t, e.cluster)
}

// TestSnapshotAnswersRetransmittedPrunedRequest covers the nastiest client
// interaction: a strict request whose response was lost, whose descriptor
// was then pruned everywhere, and whose replica then crashed. The
// retransmitted request must still be answered — from the snapshot-seeded
// memoized value — and still under the strict discipline (the strict flag
// survives in the snapshot even though the descriptor is gone).
func TestSnapshotAnswersRetransmittedPrunedRequest(t *testing.T) {
	e, _ := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	fe := e.cluster.FrontEnd("c")
	fe.StickTo(ReplicaNode(0))
	r0 := e.cluster.Replica(0)
	feNode := fe.Node()

	// Lose all responses to the client, but let requests through.
	e.net.SetLinkDown(r0.Node(), feNode, true)

	var got dtype.Value
	var answered bool
	x := fe.Submit(dtype.LogAppend{Entry: "lost"}, nil, true, func(r Response) {
		got = r.Value
		answered = true
	})
	e.submit("d", dtype.LogAppend{Entry: "other"}, nil, false)
	drainUntilPruned(t, e)
	if answered {
		t.Fatal("response was not lost")
	}

	e.net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	e.s.RunFor(20 * sim.Millisecond)
	e.net.SetNodeDown(r0.Node(), false)
	e.net.SetLinkDown(r0.Node(), feNode, false)
	r0.Recover()
	e.s.RunFor(200 * sim.Millisecond)

	fe.Retransmit()
	e.s.RunFor(500 * sim.Millisecond)
	if !answered {
		t.Fatal("retransmitted pruned request never answered")
	}
	// The strict append's value is its position in the eventual order.
	conv := e.cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("no convergence: %s", conv.Reason)
	}
	pos := -1
	for i, id := range conv.Order {
		if id == x.ID {
			pos = i + 1
		}
	}
	if pos < 0 {
		t.Fatalf("op %v not in eventual order", x.ID)
	}
	if got != pos {
		t.Fatalf("strict append answered %v, position in eventual order is %d", got, pos)
	}
	requireNoFaults(t, e.cluster)
}

// buildSnapshotOf extracts a replica's whole memoized prefix — what a range
// client with Have=0 would assemble from that replica's answer.
func buildSnapshotOf(t *testing.T, r *Replica) prefixSnapshot {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memoized == 0 {
		t.Fatal("replica has no snapshot to offer")
	}
	enc, err := r.dt.(dtype.Snapshotter).EncodeState(r.memoState)
	if err != nil {
		t.Fatalf("encoding state: %v", err)
	}
	return prefixSnapshot{
		From:      r.id,
		DataType:  r.dt.Name(),
		Ops:       r.buildPrefixSnapOps(0, r.memoized),
		State:     enc,
		Watermark: r.gen.HighSeq(),
	}
}

// deliverRangeAnswer feeds snap to r the only way a prefix reaches a replica:
// as the answer of a range round. The round is pinned at have — below
// r.memoized it models a live join whose local prefix advanced while the
// round was in flight, which is how a server's chunks come to overlap the
// receiver's solid prefix — and answered with one chunk carrying
// snap.Ops[have:] followed by the Done frame.
func deliverRangeAnswer(r *Replica, have int, snap prefixSnapshot) {
	r.mu.Lock()
	r.rangeSeq++
	r.rangeNonce = r.rangeSeq
	r.rangePeer = int(snap.From)
	r.rangeHave = have
	r.rangeBuf = nil
	nonce := r.rangeNonce
	r.mu.Unlock()
	if have < len(snap.Ops) {
		r.handleRangeResponse(RangeResponseMsg{From: snap.From, Nonce: nonce, Offset: have, Ops: snap.Ops[have:]})
	}
	r.handleRangeResponse(RangeResponseMsg{
		From:      snap.From,
		Nonce:     nonce,
		Offset:    len(snap.Ops),
		Done:      true,
		DataType:  snap.DataType,
		Total:     len(snap.Ops),
		HasState:  true,
		State:     snap.State,
		Watermark: snap.Watermark,
		Tail:      GossipMsg{From: snap.From},
	})
}

// TestDuplicateAndStaleSnapshotsIgnored: installation is idempotent and
// merge-monotone — a replica that already holds an equal or longer prefix
// ignores the answer's prefix without touching its state.
func TestDuplicateAndStaleSnapshotsIgnored(t *testing.T) {
	e, _ := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	for i := 0; i < 6; i++ {
		e.submit("c", dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	drainUntilPruned(t, e)

	r0 := e.cluster.Replica(0)
	msg := buildSnapshotOf(t, e.cluster.Replica(1))
	before := r0.Snapshot()
	mBefore := r0.Metrics()

	// Two rounds answered with a prefix r0 already holds (e.g. the later
	// rounds of a recovery, or a live join against a peer that is not ahead).
	deliverRangeAnswer(r0, before.Memoized, msg)
	deliverRangeAnswer(r0, before.Memoized, msg)

	after := r0.Snapshot()
	if got := r0.Metrics().SnapshotsIgnored - mBefore.SnapshotsIgnored; got != 2 {
		t.Fatalf("SnapshotsIgnored delta = %d, want 2", got)
	}
	if r0.Metrics().SnapshotsInstalled != mBefore.SnapshotsInstalled {
		t.Fatal("stale snapshot was installed")
	}
	if len(after.Done) != len(before.Done) || after.Memoized != before.Memoized || after.MaxStable != before.MaxStable {
		t.Fatalf("state changed: before %+v after %+v", before, after)
	}
	requireNoFaults(t, e.cluster)
}

// TestSnapshotValidationFaults: malformed snapshots are rejected with a
// typed fault and install nothing.
func TestSnapshotValidationFaults(t *testing.T) {
	e, _ := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	for i := 0; i < 4; i++ {
		e.submit("c", dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	drainUntilPruned(t, e)
	good := buildSnapshotOf(t, e.cluster.Replica(1))

	cases := []struct {
		name   string
		mutate func(prefixSnapshot) prefixSnapshot
	}{
		{"wrong data type", func(m prefixSnapshot) prefixSnapshot {
			m.DataType = "counter"
			return m
		}},
		{"infinite label", func(m prefixSnapshot) prefixSnapshot {
			m.Ops = append([]SnapOp(nil), m.Ops...)
			m.Ops[1].Label = label.Infinity
			return m
		}},
		{"non-ascending labels", func(m prefixSnapshot) prefixSnapshot {
			m.Ops = append([]SnapOp(nil), m.Ops...)
			m.Ops[0], m.Ops[1] = m.Ops[1], m.Ops[0]
			return m
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh, crashed-and-empty replica accepts any prefix, so the
			// validation alone must reject these.
			r0 := e.cluster.Replica(0)
			r0.Crash()
			faultsBefore := r0.Metrics().Faults
			r0.Recover() // leave crashed state so the answer is processed
			deliverRangeAnswer(r0, 0, tc.mutate(good))
			if r0.Metrics().SnapshotsInstalled != 0 || r0.Snapshot().Memoized != 0 {
				t.Fatal("malformed snapshot installed")
			}
			if !r0.RangeCatchingUp() {
				t.Fatal("round closed on a refused prefix")
			}
			if r0.Metrics().Faults == faultsBefore {
				t.Fatal("no fault recorded")
			}
			var rf *ReplicaFault
			if !errorsAsAny(r0.Faults(), &rf) || rf.Code != FaultBadSnapshot {
				t.Fatalf("faults = %v, want FaultBadSnapshot", r0.Faults())
			}
		})
	}
}

// errorsAsAny finds the first error in errs matching target's type.
func errorsAsAny(errs []error, target *(*ReplicaFault)) bool {
	for _, err := range errs {
		if errors.As(err, target) {
			return true
		}
	}
	return false
}

// TestSnapshotCannotRelabelSolidPrefix: a forged answer whose chunks overlap
// the receiver's solid prefix by id but carry different (lower) labels must
// be rejected — solid labels are final, and accepting it would relabel the
// memoized prefix and corrupt memoized values past the setLabelMin guard.
func TestSnapshotCannotRelabelSolidPrefix(t *testing.T) {
	e, _ := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	for i := 0; i < 4; i++ {
		e.submit("c", dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	drainUntilPruned(t, e)
	r0 := e.cluster.Replica(0)
	before := r0.Snapshot()
	msg := buildSnapshotOf(t, e.cluster.Replica(1))
	// Same ids, strictly ascending but shifted-down labels, hostile values,
	// plus one extra op to defeat the length-based staleness check.
	msg.Ops = append([]SnapOp(nil), msg.Ops...)
	for i := range msg.Ops {
		msg.Ops[i].Label = label.Make(uint64(i+1), 1)
		msg.Ops[i].Value = "forged"
	}
	msg.Ops = append(msg.Ops, SnapOp{
		ID:    ops.ID{Client: "evil", Seq: 1},
		Label: label.Make(uint64(len(msg.Ops)+1), 1),
		Value: "forged",
	})
	mBefore := r0.Metrics()
	deliverRangeAnswer(r0, 0, msg)
	if r0.Metrics().SnapshotsInstalled != mBefore.SnapshotsInstalled {
		t.Fatal("relabelling snapshot installed")
	}
	after := r0.Snapshot()
	for id, l := range before.Labels {
		if after.Labels[id] != l {
			t.Fatalf("label of %v moved: %v -> %v", id, l, after.Labels[id])
		}
	}
	var rf *ReplicaFault
	if !errorsAsAny(r0.Faults(), &rf) || rf.Code != FaultBadSnapshot {
		t.Fatalf("faults = %v, want FaultBadSnapshot", r0.Faults())
	}
}

// TestSnapshotRejectsDuplicateOps: repeated ids cannot enter the rebuilt
// local order.
func TestSnapshotRejectsDuplicateOps(t *testing.T) {
	e, _ := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	for i := 0; i < 4; i++ {
		e.submit("c", dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	drainUntilPruned(t, e)
	msg := buildSnapshotOf(t, e.cluster.Replica(1))
	msg.Ops = append([]SnapOp(nil), msg.Ops...)
	dup := msg.Ops[0]
	dup.Label = label.Make(msg.Ops[len(msg.Ops)-1].Label.Seq+1, 0)
	msg.Ops = append(msg.Ops, dup) // ascending labels, repeated id

	r0 := e.cluster.Replica(0)
	r0.Crash()
	r0.Recover()
	deliverRangeAnswer(r0, 0, msg)
	if r0.Metrics().SnapshotsInstalled != 0 {
		t.Fatal("duplicate-op snapshot installed")
	}
	var rf *ReplicaFault
	if !errorsAsAny(r0.Faults(), &rf) || rf.Code != FaultBadSnapshot {
		t.Fatalf("faults = %v, want FaultBadSnapshot", r0.Faults())
	}
}

// TestSnapshotPrefixMismatchFault: an answer that contradicts the locally
// memoized prefix (only hostile or corrupted senders can produce one) is
// rejected.
func TestSnapshotPrefixMismatchFault(t *testing.T) {
	e, _ := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	for i := 0; i < 4; i++ {
		e.submit("c", dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	drainUntilPruned(t, e)
	r0 := e.cluster.Replica(0)
	msg := buildSnapshotOf(t, e.cluster.Replica(1))
	// Forge a longer snapshot whose shared prefix diverges.
	msg.Ops = append([]SnapOp(nil), msg.Ops...)
	msg.Ops[0].ID = ops.ID{Client: "evil", Seq: 99}
	msg.Ops = append(msg.Ops, SnapOp{
		ID:    ops.ID{Client: "evil", Seq: 100},
		Label: label.Make(msg.Ops[len(msg.Ops)-1].Label.Seq+1, 1),
		Value: 1,
	})
	mBefore := r0.Metrics()
	deliverRangeAnswer(r0, 0, msg)
	if r0.Metrics().SnapshotsInstalled != mBefore.SnapshotsInstalled {
		t.Fatal("diverging snapshot installed")
	}
	if r0.Metrics().Faults == mBefore.Faults {
		t.Fatal("no fault recorded")
	}
}

// --- former panic sites (hostile message interleavings) ---

// nextFrame stamps msg with the header of the frame r expects next from
// msg.From, which a hostile peer can forge to get its content merged.
func nextFrame(r *Replica, msg GossipMsg) GossipMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.links[msg.From]
	msg.Epoch, msg.Base, msg.Seq = l.epoch, l.mark, l.mark+1
	return msg
}

// TestHostileGossipCannotLowerSolidLabel: the seed panicked when gossip
// lowered a memoized operation's label; now the lowering is refused and
// recorded.
func TestHostileGossipCannotLowerSolidLabel(t *testing.T) {
	e, _ := newRecoveryEnv(t, Options{Memoize: true})
	defer e.cluster.Close()
	x := e.submit("c", dtype.LogAppend{Entry: "solid"}, nil, false)
	e.s.RunFor(100 * sim.Millisecond)
	r0 := e.cluster.Replica(0)
	if r0.Snapshot().Memoized == 0 {
		t.Fatal("op never memoized")
	}
	want := r0.Snapshot().Labels[x.x.ID]

	r0.handleMessage(transport.Message{Payload: nextFrame(r0, GossipMsg{
		From: 1,
		L:    map[ops.ID]label.Label{x.x.ID: label.Make(0, 1)},
	})})

	if got := r0.Snapshot().Labels[x.x.ID]; got != want {
		t.Fatalf("solid label moved: %v -> %v", want, got)
	}
	var rf *ReplicaFault
	if !errorsAsAny(r0.Faults(), &rf) || rf.Code != FaultMemoLabelChange {
		t.Fatalf("faults = %v, want FaultMemoLabelChange", r0.Faults())
	}
}

// TestHostileGossipBelowMemoizedFrontier: a forged operation labelled below
// the solid prefix must not corrupt it (the seed panicked in advanceMemo).
func TestHostileGossipBelowMemoizedFrontier(t *testing.T) {
	e, _ := newRecoveryEnv(t, Options{Memoize: true})
	defer e.cluster.Close()
	for i := 0; i < 4; i++ {
		e.submit("c", dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	e.s.RunFor(200 * sim.Millisecond)
	r0 := e.cluster.Replica(0)
	memoBefore := r0.Snapshot().Memoized
	if memoBefore == 0 {
		t.Fatal("nothing memoized")
	}

	evil := ops.New(dtype.LogAppend{Entry: "evil"}, ops.ID{Client: "evil", Seq: 0}, nil, false)
	r0.handleMessage(transport.Message{Payload: nextFrame(r0, GossipMsg{
		From: 1,
		R:    []ops.Operation{evil},
		L:    map[ops.ID]label.Label{evil.ID: label.Make(0, 1)}, // below everything
		D:    []ops.ID{evil.ID},
	})})

	if got := r0.Snapshot().Memoized; got != memoBefore {
		t.Fatalf("memoized prefix moved: %d -> %d", memoBefore, got)
	}
	var rf *ReplicaFault
	if !errorsAsAny(r0.Faults(), &rf) || rf.Code != FaultMemoOrderViolation {
		t.Fatalf("faults = %v, want FaultMemoOrderViolation", r0.Faults())
	}
}

// TestApplyPrunedFault: commute-mode apply of a missing descriptor records
// a fault instead of panicking (white box: the condition requires state no
// honest interleaving produces).
func TestApplyPrunedFault(t *testing.T) {
	e, _ := newRecoveryEnv(t, Options{Commute: true})
	defer e.cluster.Close()
	x := e.submit("c", dtype.LogAppend{Entry: "a"}, nil, false)
	e.s.RunFor(100 * sim.Millisecond)
	r0 := e.cluster.Replica(0)
	r0.mu.Lock()
	r0.unretain(r0.ids.get(x.x.ID))
	r0.applyCurrent(r0.ids.get(x.x.ID))
	r0.mu.Unlock()
	var rf *ReplicaFault
	if !errorsAsAny(r0.Faults(), &rf) || rf.Code != FaultApplyPruned {
		t.Fatalf("faults = %v, want FaultApplyPruned", r0.Faults())
	}
}

// TestValueForPrunedAndUnknownFaults: response-value computation returns
// typed errors for unreplayable orders and unknown operations (both former
// panics).
func TestValueForPrunedAndUnknownFaults(t *testing.T) {
	e, _ := newRecoveryEnv(t, Options{})
	defer e.cluster.Close()
	x := e.submit("c", dtype.LogAppend{Entry: "a"}, nil, false)
	e.s.RunFor(100 * sim.Millisecond)
	r0 := e.cluster.Replica(0)

	r0.mu.Lock()
	_, errUnknown := r0.valueFor(r0.ids.rec(ops.ID{Client: "nobody", Seq: 7}), false)
	r0.unretain(r0.ids.get(x.x.ID))
	_, errPruned := r0.valueFor(r0.ids.get(x.x.ID), false)
	r0.mu.Unlock()

	var rf *ReplicaFault
	if !errors.As(errPruned, &rf) || rf.Code != FaultValuePruned {
		t.Fatalf("pruned replay error = %v, want FaultValuePruned", errPruned)
	}
	if !errors.As(errUnknown, &rf) || rf.Code != FaultValueNotDone {
		t.Fatalf("unknown op error = %v, want FaultValueNotDone", errUnknown)
	}
	if len(r0.Faults()) < 2 {
		t.Fatalf("faults = %v, want both recorded", r0.Faults())
	}
}

// TestHostileWatermarkCannotCrashLabeling: a forged range answer with a
// near-maximal label watermark exhausts the label sequence space; the
// replica must fail soft (stop labeling, record a fault) instead of
// panicking on the next do_it — the remote-crash class this PR eliminates.
func TestHostileWatermarkCannotCrashLabeling(t *testing.T) {
	e, _ := newRecoveryEnv(t, pruneOptions())
	defer e.cluster.Close()
	r0 := e.cluster.Replica(0)
	evil := prefixSnapshot{
		From:     1,
		DataType: "log",
		Ops: []SnapOp{{
			ID:    ops.ID{Client: "evil", Seq: 0},
			Label: label.Make(1, 1),
			Value: 1,
		}},
		State:     []byte("evil"),
		Watermark: ^uint64(0),
	}
	deliverRangeAnswer(r0, 0, evil)

	fe := e.cluster.FrontEnd("c")
	fe.StickTo(ReplicaNode(0))
	fe.Submit(dtype.LogAppend{Entry: "x"}, nil, false, nil)
	e.s.RunFor(100 * sim.Millisecond) // must not panic

	var rf *ReplicaFault
	if !errorsAsAny(r0.Faults(), &rf) || rf.Code != FaultLabelsExhausted {
		t.Fatalf("faults = %v, want FaultLabelsExhausted", r0.Faults())
	}
}
