package core

import (
	"fmt"
	"testing"

	"esds/internal/dtype"
	"esds/internal/sim"
	"esds/internal/transport"
)

// checkNet runs a check after every delivery to a registered node.
type checkNet struct {
	transport.Network
	after func()
}

func (n *checkNet) Register(id transport.NodeID, h transport.Handler) {
	n.Network.Register(id, func(m transport.Message) {
		h(m)
		if n.after != nil {
			n.after()
		}
	})
}

// suffixCacheErr checks the suffix cache's refinement obligation: every
// cached position holds exactly the state and value a fresh replay of
// doneSeq[memoized:] from memoState computes there.
func suffixCacheErr(r *Replica) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := len(r.sufVals)
	if len(r.sufStates) != k {
		return fmt.Errorf("cache holds %d states but %d values", len(r.sufStates), k)
	}
	if k > 0 && !r.opt.Memoize {
		return fmt.Errorf("%d positions cached with Memoize off", k)
	}
	if k > len(r.doneSeq)-r.memoized {
		return fmt.Errorf("%d positions cached past a %d-op suffix", k, len(r.doneSeq)-r.memoized)
	}
	st := r.memoState
	for i, h := range r.doneSeq[r.memoized : r.memoized+k] {
		id := r.ids.id(r.ids.at(h))
		x, ok := r.ids.descriptor(r.ids.at(h))
		if !ok {
			return fmt.Errorf("position %d (%v) cached without a descriptor", i, id)
		}
		var v dtype.Value
		st, v = r.dt.Apply(st, x.Op)
		if fmt.Sprint(v) != fmt.Sprint(r.sufVals[i]) || fmt.Sprint(st) != fmt.Sprint(r.sufStates[i]) {
			return fmt.Errorf("position %d (%v %v): cached %v / %v, replay %v / %v",
				i, id, x.Op, r.sufVals[i], r.sufStates[i], v, st)
		}
	}
	return nil
}

// TestSuffixCacheMatchesReplay is the suffix cache's refinement check: a
// Directory workload from three round-robin clients (so labels from every
// replica interleave in each local order) runs over a jittered,
// reordering network, and after EVERY delivery each replica's
// cached values and states must equal a fresh replay from memoState. The
// run covers lowered labels (requests retransmitted to a second replica
// are labeled twice, and the higher label is lowered when the lower one
// arrives), a replica that misses gossip for a while and catches up by a
// live-join range round that installs a longer prefix under its cache, and
// a mid-run crash recovered by range catch-up.
func TestSuffixCacheMatchesReplay(t *testing.T) {
	s := sim.New(7)
	isReplica := func(id transport.NodeID) bool { return len(id) > 8 && id[:8] == "replica:" }
	sn := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica,
			transport.UniformLatency(sim.Millisecond/2, 2*sim.Millisecond),
			transport.UniformLatency(sim.Millisecond/2, 4*sim.Millisecond)),
		Sizer: EstimateSize,
	})
	net := &checkNet{Network: sn}
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Directory{},
		Network:  net,
		Options:  Options{Memoize: true, Prune: true},
		Stores:   []StableStore{NewMemStableStore(), NewMemStableStore(), NewMemStableStore()},
	})
	defer cluster.Close()
	replicas := cluster.LocalReplicas()
	checks := 0
	net.after = func() {
		checks++
		for i, r := range replicas {
			if err := suffixCacheErr(r); err != nil {
				t.Fatalf("t=%v replica %d after delivery %d: %v", s.Now(), i, checks, err)
			}
		}
	}

	// Gossip runs on its own ticker so the live join below can hold the
	// peers' gossip back while its range answer is in flight.
	gossipPaused := false
	for _, r := range replicas {
		r := r
		s.Every(5*sim.Millisecond, func() {
			if !gossipPaused {
				r.SendGossip()
			}
		})
	}
	clients := []string{"c0", "c1", "c2"}
	s.Every(30*sim.Millisecond, func() {
		for _, c := range clients {
			cluster.FrontEnd(c).Retransmit()
		}
	})

	cached := 0 // most positions any replica had cached at a check
	submitted := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			var op dtype.Operator = dirOp(submitted)
			if submitted%9 == 8 {
				op = dtype.DirList{}
			}
			fe := cluster.FrontEnd(clients[submitted%3])
			fe.Submit(op, nil, submitted%7 == 0, nil)
			if submitted%5 == 0 {
				fe.Retransmit() // a second replica labels it too
			}
			submitted++
			s.RunFor(sim.Millisecond)
			for _, r := range replicas {
				r.mu.Lock()
				cached = max(cached, len(r.sufVals))
				r.mu.Unlock()
			}
		}
	}

	run(60)
	if doIts := cluster.TotalMetrics().DoItCount; doIts <= uint64(submitted) {
		t.Fatalf("%d do_it for %d operations: no operation was labeled twice, so no label was lowered", doIts, submitted)
	}

	// Live join: replica 1 hears no gossip for a while, so its memoized
	// prefix falls behind its peers' while it keeps answering (and caching)
	// its own requests; then a range round installs the peers' longer
	// prefix under its cache.
	nodes := cluster.Nodes()
	r1 := replicas[1]
	for _, peer := range []int{0, 2} {
		sn.SetLinkDown(nodes[peer], nodes[1], true)
	}
	run(40)
	// Hold gossip back until what the partition is still carrying has been
	// dropped, so only the range answer can bring the prefix.
	gossipPaused = true
	s.RunFor(10 * sim.Millisecond)
	for _, peer := range []int{0, 2} {
		sn.SetLinkDown(nodes[peer], nodes[1], false)
	}
	if !r1.CatchUpRange() {
		t.Fatal("CatchUpRange refused")
	}
	s.RunFor(20 * sim.Millisecond)
	gossipPaused = false
	if got := r1.Metrics().SnapshotsInstalled; got == 0 {
		t.Fatalf("live join installed no prefix (ignored %d): the run no longer covers an install under the cache",
			r1.Metrics().SnapshotsIgnored)
	}
	run(40)

	// Crash replica 2 mid-run and recover it by range catch-up while the
	// other replicas keep taking traffic.
	r2 := replicas[2]
	sn.SetNodeDown(nodes[2], true)
	r2.Crash()
	run(20)
	sn.SetNodeDown(nodes[2], false)
	r2.Recover()
	for i := 0; r2.Recovering(); i++ {
		if i == 50 {
			t.Fatal("crashed replica never finished recovering")
		}
		run(5)
		r2.RetryRecovery()
	}
	run(40)

	s.RunFor(500 * sim.Millisecond)
	if conv := cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("no convergence: %s", conv.Reason)
	}
	requireNoFaults(t, cluster)
	if cached < 5 {
		t.Fatalf("no replica ever cached more than %d positions: the check had nothing to check", cached)
	}
	t.Logf("%d deliveries checked, up to %d positions cached, %d response applies for %d responses",
		checks, cached, cluster.TotalMetrics().AppliesForResponse, cluster.TotalMetrics().ResponsesSent)
}

// TestCommuteModeNeverFillsSuffixCache: commute mode answers non-strict
// operations from cs_r and strict ones from the memoized prefix, so with
// Memoize on it must never replay — no response applies, and an empty
// suffix cache at every replica after every delivery.
func TestCommuteModeNeverFillsSuffixCache(t *testing.T) {
	e := newTestEnv(t, 3, dtype.Counter{}, Options{Memoize: true, Prune: true, Commute: true})
	defer e.cluster.Close()
	for i := 0; i < 60; i++ {
		e.submit(fmt.Sprintf("c%d", i%3), dtype.CtrAdd{N: int64(i)}, nil, i%10 == 0)
		e.s.RunFor(sim.Millisecond / 2)
		for j, r := range e.cluster.LocalReplicas() {
			r.mu.Lock()
			n := len(r.sufVals)
			r.mu.Unlock()
			if n != 0 {
				t.Fatalf("op %d: replica %d cached %d suffix positions in commute mode", i, j, n)
			}
		}
	}
	e.s.RunFor(300 * sim.Millisecond)
	m := e.cluster.TotalMetrics()
	if m.ResponsesSent < 60 || m.AppliesForResponse != 0 {
		t.Fatalf("%d responses with %d response applies, want 60+ with none", m.ResponsesSent, m.AppliesForResponse)
	}
}
