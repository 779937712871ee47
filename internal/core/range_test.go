package core

import (
	"fmt"
	"testing"

	"esds/internal/dtype"
	"esds/internal/sim"
)

// TestRangeRecoveryFromOnePeer drives crash recovery over the deterministic
// network with the round's FIRST-choice peer dead: the retry rotation must
// move on to the surviving host, which alone supplies the whole pruned
// history — in bounded chunks, with the §9.3 label condition intact — and
// the replica must still hold the §9.3 barrier until the dead peer returns
// and answers too.
func TestRangeRecoveryFromOnePeer(t *testing.T) {
	e, _ := newRecoveryEnv(t, DefaultOptions())
	for i := 0; i < 10; i++ {
		e.submit(fmt.Sprintf("c%d", i%2), dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	e.s.RunFor(200 * sim.Millisecond)

	r0 := e.cluster.Replica(0)
	e.cluster.Replica(2).rangeChunk = 3 // 10 memoized ops -> 4 chunks + the Done frame
	before := r0.Snapshot()
	if len(before.Done) != 10 || before.Memoized != 10 {
		t.Fatalf("pre-crash done=%d memoized=%d, want 10/10", len(before.Done), before.Memoized)
	}

	nodes := e.cluster.Nodes()
	e.net.SetNodeDown(nodes[0], true)
	r0.Crash()
	// Peer 1 — the round's first choice — is down too: recovery must rotate
	// to the one remaining host.
	e.net.SetNodeDown(nodes[1], true)
	e.s.RunFor(20 * sim.Millisecond)

	e.net.SetNodeDown(nodes[0], false)
	r0.Recover()
	if !r0.Recovering() || !r0.RangeCatchingUp() {
		t.Fatal("replica not in range recovery after Recover")
	}
	e.s.RunFor(50 * sim.Millisecond)
	if got := r0.Metrics().RangeCatchups; got != 0 {
		t.Fatalf("%d rounds completed against a dead peer", got)
	}
	r0.RetryRecovery() // rotates the open round to replica 2
	e.s.RunFor(100 * sim.Millisecond)

	m := r0.Metrics()
	if m.RangeCatchups != 1 || m.RangeRetries != 1 {
		t.Fatalf("catchups=%d retries=%d, want 1/1", m.RangeCatchups, m.RangeRetries)
	}
	if m.RangeChunksReceived != 5 {
		t.Fatalf("chunks received = %d, want 4 ops chunks + 1 Done", m.RangeChunksReceived)
	}
	if got := e.cluster.Replica(2).Metrics().RangeServed; got != 1 {
		t.Fatalf("surviving host served %d range rounds, want 1", got)
	}
	after := r0.Snapshot()
	if len(after.Done) != 10 || after.Memoized != 10 {
		t.Fatalf("post-transfer done=%d memoized=%d, want 10/10", len(after.Done), after.Memoized)
	}
	// §9.3 correctness condition, unchanged by the transport of the answer.
	for id, l := range after.Labels {
		if old, ok := before.Labels[id]; ok && old.Less(l) {
			t.Fatalf("label of %v rose across crash: %v -> %v", id, old, l)
		}
	}
	// One answer is not the barrier: the round has moved on to the peer that
	// has not answered, and the replica stays suspended until it does.
	if !r0.Recovering() || !r0.RangeCatchingUp() {
		t.Fatal("recovery resumed before every peer answered")
	}

	e.net.SetNodeDown(nodes[1], false)
	r0.RetryRecovery() // re-asks replica 1 only; replica 2's answer is kept
	e.s.RunFor(200 * sim.Millisecond)
	if r0.Recovering() || r0.RangeCatchingUp() {
		t.Fatal("recovery never completed after the dead peer returned")
	}
	if got := e.cluster.Replica(2).Metrics().RangeServed; got != 1 {
		t.Fatalf("surviving host served %d range rounds, want still 1", got)
	}
	// The prefix crossed the wire once: replica 1's round carried a tail.
	if got := r0.Metrics().RangeChunksReceived; got != 6 {
		t.Fatalf("chunks received = %d, want 5 + replica 1's lone Done frame", got)
	}
	if conv := e.cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("cluster did not reconverge: %s", conv.Reason)
	}
	requireNoFaults(t, e.cluster)
}

// TestRangeRecoveryFullTailReplay pins the degraded form: a server whose
// data type cannot snapshot serves no chunks and answers with a full
// self-contained tail, which is complete because such a replica never
// prunes. The client resumes on descriptor replay.
func TestRangeRecoveryFullTailReplay(t *testing.T) {
	e, _ := newRecoveryEnvOf(t, opaqueType{dtype.Log{}}, DefaultOptions())
	for i := 0; i < 6; i++ {
		e.submit("c", dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(3 * sim.Millisecond)
	}
	e.s.RunFor(200 * sim.Millisecond)

	r0 := e.cluster.Replica(0)
	e.net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	e.s.RunFor(20 * sim.Millisecond)
	e.net.SetNodeDown(r0.Node(), false)
	r0.Recover()
	e.s.RunFor(200 * sim.Millisecond)

	if r0.Recovering() {
		t.Fatal("range recovery by replay never completed")
	}
	m := e.cluster.TotalMetrics()
	if m.RangeChunksSent != 2 || m.SnapshotsInstalled != 0 {
		t.Fatalf("chunks sent=%d prefixes installed=%d, want one Done frame per peer and no install", m.RangeChunksSent, m.SnapshotsInstalled)
	}
	if got := len(r0.Snapshot().Done); got != 6 {
		t.Fatalf("post-recovery done = %d, want 6", got)
	}
	if conv := e.cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("cluster did not reconverge: %s", conv.Reason)
	}
	requireNoFaults(t, e.cluster)
}

// TestRecoverPrefixCrossesWireOnce pins the transfer cost of the §9.3
// barrier on the range transport: in a quiescent three-replica cluster
// with m memoized operations everywhere, one Recover() costs the peers
// ceil(m/rangeChunkOps) prefix chunks plus one Done frame each — the first
// round carries the prefix, every later round re-pins Have and carries a
// tail.
func TestRecoverPrefixCrossesWireOnce(t *testing.T) {
	const m = rangeChunkOps + 44
	e, _ := newRecoveryEnv(t, DefaultOptions())
	for i := 0; i < m; i++ {
		e.submit(fmt.Sprintf("c%d", i%3), dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false)
		e.s.RunFor(sim.Millisecond)
	}
	e.s.RunFor(200 * sim.Millisecond)
	for i, r := range e.cluster.LocalReplicas() {
		if got := r.Snapshot().Memoized; got != m {
			t.Fatalf("replica %d memoized %d ops before the crash, want %d", i, got, m)
		}
	}

	r0 := e.cluster.Replica(0)
	e.net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	e.s.RunFor(20 * sim.Millisecond)
	e.net.SetNodeDown(r0.Node(), false)
	r0.Recover()
	e.s.RunFor(200 * sim.Millisecond)

	if r0.Recovering() {
		t.Fatal("recovery never completed")
	}
	sent := e.cluster.Replica(1).Metrics().RangeChunksSent + e.cluster.Replica(2).Metrics().RangeChunksSent
	if want := uint64((m+rangeChunkOps-1)/rangeChunkOps + 2); sent != want {
		t.Fatalf("peers sent %d range frames for one Recover(), want %d (one copy of the prefix + a Done frame per peer)", sent, want)
	}
	if got := r0.Snapshot().Memoized; got != m {
		t.Fatalf("post-recovery memoized = %d, want %d", got, m)
	}
	if conv := e.cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("cluster did not reconverge: %s", conv.Reason)
	}
	requireNoFaults(t, e.cluster)
}

// TestLiveJoinRetriesLostRound: a live catch-up whose first-choice peer is
// dead must be rotated to the next peer by RetryRecovery — the documented
// retry driver for every open round, not only recovery rounds — while the
// replica, which lost nothing and owes no barrier, keeps answering.
func TestLiveJoinRetriesLostRound(t *testing.T) {
	e := newTestEnv(t, 3, dtype.Log{}, DefaultOptions())
	defer e.cluster.Close()
	nodes := e.cluster.Nodes()
	r0 := e.cluster.Replica(0)

	// Replica 0 is partitioned away while the others take traffic, and
	// asks for a catch-up as the partition heals.
	for _, peer := range nodes[1:] {
		e.net.SetLinkDown(nodes[0], peer, true)
		e.net.SetLinkDown(peer, nodes[0], true)
	}
	fe := e.cluster.FrontEnd("w")
	fe.StickTo(nodes[2])
	for i := 0; i < 8; i++ {
		fe.Submit(dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}, nil, false, nil)
		e.s.RunFor(3 * sim.Millisecond)
	}
	e.s.RunFor(50 * sim.Millisecond)
	for _, peer := range nodes[1:] {
		e.net.SetLinkDown(nodes[0], peer, false)
		e.net.SetLinkDown(peer, nodes[0], false)
	}
	e.net.SetNodeDown(nodes[1], true) // the round's first choice
	if !r0.CatchUpRange() {
		t.Fatal("CatchUpRange refused")
	}
	e.s.RunFor(50 * sim.Millisecond)
	if !r0.RangeCatchingUp() {
		t.Fatal("round closed against a dead peer")
	}
	local := e.cluster.FrontEnd("local")
	local.StickTo(nodes[0])
	answered := false
	local.Submit(dtype.LogAppend{Entry: "mid-join"}, nil, false, func(Response) { answered = true })
	e.s.RunFor(20 * sim.Millisecond)
	if !answered || r0.Recovering() {
		t.Fatal("joining replica stopped answering during the round")
	}

	r0.RetryRecovery()
	e.s.RunFor(50 * sim.Millisecond)
	if r0.RangeCatchingUp() {
		t.Fatal("RetryRecovery did not rotate the live-join round to the next peer")
	}
	if m := r0.Metrics(); m.RangeRetries != 1 || m.RangeCatchups != 1 {
		t.Fatalf("retries=%d catchups=%d, want 1/1", m.RangeRetries, m.RangeCatchups)
	}
	if got := len(r0.Snapshot().Done); got != 9 {
		t.Fatalf("replica 0 holds %d ops after the join, want the 8 it missed + its own", got)
	}
	requireNoFaults(t, e.cluster)
}
