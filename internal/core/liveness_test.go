package core

import (
	"errors"
	gonet "net"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/sim"
	"esds/internal/transport"
)

// TestCloseFailsPendingWaiters is the Close-with-pending-ops regression:
// a strict operation that can never stabilize (gossip never started) must
// not strand its SubmitWait goroutine when the cluster closes — it returns
// ErrClosed instead.
func TestCloseFailsPendingWaiters(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  DefaultOptions(),
	})
	// No gossip: a strict op needs stability at all three replicas, so it
	// stays pending forever.
	fe := cluster.FrontEnd("c")
	done := make(chan error, 1)
	go func() {
		_, _, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, true)
		done <- err
	}()
	// Wait until the op is actually pending before closing.
	deadline := time.Now().Add(5 * time.Second)
	for fe.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("op never became pending")
		}
		time.Sleep(time.Millisecond)
	}
	cluster.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("SubmitWait returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SubmitWait still blocked after Close")
	}

	// Post-Close submissions fail immediately, on existing and fresh front
	// ends alike.
	if _, _, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close SubmitWait returned %v, want ErrClosed", err)
	}
	late := cluster.FrontEnd("latecomer")
	if _, _, err := late.SubmitWait(dtype.CtrRead{}, nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("late front end SubmitWait returned %v, want ErrClosed", err)
	}
	if late.Closed() == nil {
		t.Fatal("late front end not marked closed")
	}
}

// TestFrontEndCloseCallbackFiresOnce checks the async path: a pending
// callback fires exactly once with Response.Err on Close, and Retransmit
// on a closed front end is a no-op.
func TestFrontEndCloseCallbackFiresOnce(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	cluster := NewCluster(ClusterConfig{
		Replicas: 2,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  DefaultOptions(),
	})
	fe := cluster.FrontEnd("c")
	calls := make(chan Response, 4)
	fe.Submit(dtype.CtrAdd{N: 1}, nil, true, func(r Response) { calls <- r }) // strict, no gossip: pends
	fe.Close(nil)
	fe.Close(nil) // idempotent
	select {
	case r := <-calls:
		if !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("callback got %+v, want ErrClosed", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close never fired the pending callback")
	}
	select {
	case r := <-calls:
		t.Fatalf("callback fired twice: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	if n := fe.Retransmit(); n != 0 {
		t.Fatalf("closed front end retransmitted %d requests", n)
	}
	cluster.Close()
}

// TestRetransmitRecoversLostRequestOverTCP is the lost-request liveness
// regression: a front end whose first target replica is unreachable (its
// frames are lost on the wire) recovers through the cluster-level
// retransmission ticker alone — no manual retry loop — because Retransmit
// rotates the pending request to the live replica.
func TestRetransmitRecoversLostRequestOverTCP(t *testing.T) {
	RegisterWire()

	// Replica 0 is real; replica 1's address is a reserved-then-released
	// port nothing listens on, so every frame to it is dropped.
	r0Net, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r0Net.Close()
	deadLn, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	r0Net.SetPeer(ReplicaNode(1), deadAddr)
	r0Cluster := NewCluster(ClusterConfig{
		Replicas:      2,
		DataType:      dtype.Counter{},
		Network:       r0Net,
		Options:       DefaultOptions(),
		LocalReplicas: []int{0},
	})
	defer r0Cluster.Close()
	r0Net.Start()
	r0Cluster.StartLiveGossip(5 * time.Millisecond)

	feNet, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer feNet.Close()
	feNet.SetPeer(ReplicaNode(0), r0Net.Addr().String())
	feNet.SetPeer(ReplicaNode(1), deadAddr)
	feCluster := NewCluster(ClusterConfig{
		Replicas:      2,
		DataType:      dtype.Counter{},
		Network:       feNet,
		LocalReplicas: []int{},
	})
	defer feCluster.Close()
	feNet.Start()
	feCluster.StartLiveRetransmit(50 * time.Millisecond)

	fe := feCluster.FrontEnd("c")
	// Force the first send at the dead replica so the request is genuinely
	// lost and only retransmission can save it.
	for fe.ReplicaForRoundRobin() != ReplicaNode(1) {
		fe.Submit(dtype.CtrRead{}, nil, false, nil) // burn a cursor position (served by r0 eventually or lost — irrelevant)
	}
	done := make(chan Response, 1)
	fe.Submit(dtype.CtrAdd{N: 7}, nil, false, func(r Response) { done <- r })
	select {
	case r := <-done:
		if r.Err != nil || r.Value != "ok" {
			t.Fatalf("recovered response = %+v", r)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("lost request never recovered via retransmission")
	}
}

// TestEmptyDeltaSuppression is the idle-gossip regression: a replica that
// owes its peers nothing sends NO messages (the round is suppressed and
// counted), suppression does not interfere with convergence once traffic
// resumes, and after quiescence a cluster sends at most one round of
// acknowledgements and then falls silent.
func TestEmptyDeltaSuppression(t *testing.T) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  DefaultOptions(),
	})

	// Idle cluster: every gossip round is all-empty and must be suppressed.
	for i := 0; i < 10; i++ {
		cluster.GossipAll()
		s.Run(0)
	}
	m := cluster.TotalMetrics()
	if m.GossipSent != 0 {
		t.Fatalf("idle cluster sent %d gossip messages", m.GossipSent)
	}
	if want := uint64(10 * 3 * 2); m.GossipSuppressed != want {
		t.Fatalf("suppressed = %d, want %d", m.GossipSuppressed, want)
	}

	// One operation: the handling replica has news for its 2 peers; rounds
	// propagate done/stable knowledge until the cluster converges, after
	// which rounds are all-suppressed again.
	fe := cluster.FrontEnd("c")
	fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	s.Run(0)
	for i := 0; i < 6; i++ {
		cluster.GossipAll()
		s.Run(0)
	}
	m = cluster.TotalMetrics()
	if m.GossipSent == 0 {
		t.Fatal("suppression swallowed real deltas")
	}
	if conv := cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("cluster did not converge under suppression: %s", conv.Reason)
	}
	sentAtQuiescence := m.GossipSent
	for i := 0; i < 5; i++ {
		cluster.GossipAll()
		s.Run(0)
	}
	m = cluster.TotalMetrics()
	if m.GossipSent != sentAtQuiescence {
		t.Fatalf("quiescent cluster kept gossiping: %d -> %d", sentAtQuiescence, m.GossipSent)
	}

	// One more operation, then count the frames of every round until the
	// cluster is silent: once the changes are out, a round of
	// acknowledgements (at most one frame per peer) and then nothing.
	fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	s.Run(0)
	var perRound []uint64
	for i := 0; i < 8; i++ {
		before := cluster.TotalMetrics().GossipSent
		cluster.GossipAll()
		s.Run(0)
		perRound = append(perRound, cluster.TotalMetrics().GossipSent-before)
	}
	last := 0
	for i, k := range perRound {
		if k > 0 {
			last = i
		}
	}
	if conv := cluster.CheckConvergence(); !conv.Converged || last >= len(perRound)-3 {
		t.Fatalf("frames per round %v: the cluster never fell silent (converged %v)", perRound, conv.Converged)
	}
	if ackRound := perRound[last]; ackRound > 3*2 {
		t.Fatalf("frames per round %v: last round sent %d frames, more than one per peer", perRound, ackRound)
	}
	if m := cluster.TotalMetrics(); m.GossipResent != 0 {
		t.Fatalf("%d frames resent on a lossless network", m.GossipResent)
	}
}

// TestEmptyDeltaSuppressionKeepsRecoveryHandshake checks the §9.3
// interaction: a recovering replica still receives every peer's ack (acks
// travel outside SendGossip), so recovery completes even when all regular
// deltas are empty.
func TestEmptyDeltaSuppressionKeepsRecoveryHandshake(t *testing.T) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	stores := []StableStore{NewMemStableStore(), NewMemStableStore(), NewMemStableStore()}
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		// No pruning: §9.3 recovery replays descriptors from peers, so it
		// supports every configuration that retains them (see DESIGN.md §5
		// on the prune/recovery interaction).
		Options: Options{Memoize: true},
		Stores:  stores,
	})
	fe := cluster.FrontEnd("c")
	fe.Submit(dtype.CtrAdd{N: 4}, nil, false, nil)
	s.Run(0)
	for i := 0; i < 6; i++ {
		cluster.GossipAll()
		s.Run(0)
	}
	r0 := cluster.Replica(0)
	r0.Crash()
	r0.Recover()
	s.Run(0)
	if r0.Recovering() {
		t.Fatal("recovery handshake did not complete")
	}
	for i := 0; i < 6; i++ {
		cluster.GossipAll()
		s.Run(0)
	}
	if conv := cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("post-recovery convergence failed: %s", conv.Reason)
	}
}

// TestCheckConvergenceElementwise is the false-positive regression for the
// convergence checker: two replicas with equal-SIZE but different done
// sets — and identical label knowledge — must not report convergence.
func TestCheckConvergenceElementwise(t *testing.T) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := NewCluster(ClusterConfig{
		Replicas: 2,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  Options{}, // no pruning: keep state inspectable
	})
	// Each replica labels one op of its own (no gossip), so done sets are
	// {a} and {b}.
	feA := cluster.FrontEnd("a")
	feA.StickTo(ReplicaNode(0))
	feB := cluster.FrontEnd("b")
	feB.StickTo(ReplicaNode(1))
	feA.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	feB.Submit(dtype.CtrAdd{N: 2}, nil, false, nil)
	s.Run(0)

	r0, r1 := cluster.Replica(0), cluster.Replica(1)
	// Exchange ONLY label knowledge (a gossip L without R/D/S — possible
	// when gossip frames are lost or reordered): both replicas now know both
	// labels, done sets still differ.
	r1.handleMessage(transport.Message{Payload: GossipMsg{From: 0, L: r0.Snapshot().Labels}})
	r0.handleMessage(transport.Message{Payload: GossipMsg{From: 1, L: r1.Snapshot().Labels}})

	s0, s1 := r0.Snapshot(), r1.Snapshot()
	if len(s0.Done) != 1 || len(s1.Done) != 1 || s0.Done[0] == s1.Done[0] {
		t.Fatalf("setup broken: done sets %v / %v", s0.Done, s1.Done)
	}
	if len(s0.Labels) != 2 || len(s1.Labels) != 2 {
		t.Fatalf("setup broken: label maps %v / %v", s0.Labels, s1.Labels)
	}
	conv := cluster.CheckConvergence()
	if conv.Converged {
		t.Fatal("equal-size different done sets reported as converged")
	}
}
