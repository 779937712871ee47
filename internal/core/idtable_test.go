package core

import (
	"fmt"
	"testing"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// idTableErr checks one replica's identifier records against Fig. 7's
// invariants (not against each other's bookkeeping): for every id that is
// not waiting on a deferred completion,
//
//	(a) Invariant 7.2 — with a proper label, id ∈ stable_r[r] iff id is in
//	    done_r[i] for every i;
//	(b) stable_r[i] ⊆ done_r[j] for all i, j;
//
// and for every id,
//
//	(d) a locally done id has a proper label, and every memoized position
//	    of doneSeq holds a memoized value;
//	(e) id ∈ done_r[r] iff it is in the local order doneSeq (Invariant
//	    7.15 orders exactly done_r[r]).
//
// It reports whether anything was deferred, which (c) needs.
func idTableErr(r *Replica) (deferred bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return false, nil
	}
	for id, e := range r.ids.m {
		if e.doneAt(r.id) && e.label.IsInf() {
			return false, fmt.Errorf("(d) %v is done without a label", id)
		}
		if e.has(recDeferred) {
			continue
		}
		if !e.label.IsInf() && e.stableAt(r.id) != (e.done == r.all) {
			return false, fmt.Errorf("(a) %v: stable here %v, done mask %b of %b", id, e.stableAt(r.id), e.done, r.all)
		}
		if e.stable != 0 && e.done != r.all {
			return false, fmt.Errorf("(b) %v: stable mask %b but done mask %b of %b", id, e.stable, e.done, r.all)
		}
	}
	for i, id := range r.doneSeq[:r.memoized] {
		if !r.ids.get(id).has(recMemo) {
			return false, fmt.Errorf("(d) memoized position %d (%v) has no value", i, id)
		}
	}
	inSeq := make(map[ops.ID]bool, len(r.doneSeq))
	for _, id := range r.doneSeq {
		inSeq[id] = true
	}
	for id, e := range r.ids.m {
		if e.doneAt(r.id) != inSeq[id] {
			return false, fmt.Errorf("(e) %v: done bit %v, in the local order %v", id, e.doneAt(r.id), inSeq[id])
		}
	}
	return len(r.deferredQueue) > 0, nil
}

// crossReplicaErr checks what replica r believes about its peers against
// the peers themselves: done_r[i] ⊆ done_i[i] and stable_r[i] ⊆
// stable_i[i] (f), for every peer i that is up and not recovering — a
// crash wipes done_i[i] while r's beliefs about it stay.
func crossReplicaErr(replicas []*Replica) error {
	up := make([]bool, len(replicas))
	for i, p := range replicas {
		p.mu.Lock()
		up[i] = !p.crashed && !p.recovering
		p.mu.Unlock()
	}
	for _, r := range replicas {
		r.mu.Lock()
		for id, e := range r.ids.m {
			for i, p := range replicas {
				if p == r || !up[i] || e.done&(1<<i) == 0 && e.stable&(1<<i) == 0 {
					continue
				}
				pe := p.ids.get(id)
				if e.done&(1<<i) != 0 && (pe == nil || !pe.doneAt(p.id)) {
					r.mu.Unlock()
					return fmt.Errorf("(f) replica %d holds %v done at %d, which has not done it", r.id, id, i)
				}
				if e.stable&(1<<i) != 0 && (pe == nil || !pe.stableAt(p.id)) {
					r.mu.Unlock()
					return fmt.Errorf("(f) replica %d holds %v stable at %d, where it is not", r.id, id, i)
				}
			}
		}
		r.mu.Unlock()
	}
	return nil
}

// TestIDTableInvariants drives clusters of 3 and 5 replicas with strict and
// non-strict operations, message loss, duplication and reordering
// (SimNet's jittered latency; FaultNet's faults run on wall-clock timers,
// which would break the simulator's determinism), and one replica crashed
// and recovered mid-run. After every delivery each replica's identifier
// records must satisfy idTableErr, its beliefs about its peers
// crossReplicaErr, and whenever nothing is deferred its counters must agree
// with the sets the debug snapshot lists:
//
//	(c) Metrics().DoneOps = |Snapshot().Done| and
//	    Metrics().StableOps = |Snapshot().Stable|.
//
// Once the loss heals, every operation must be answered and stable at
// every replica, and the replicas must converge.
func TestIDTableInvariants(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			runIDTableInvariants(t, n)
		})
	}
}

func runIDTableInvariants(t *testing.T, n int) {
	s := sim.New(int64(n) + 100)
	isReplica := func(id transport.NodeID) bool { return len(id) > 8 && id[:8] == "replica:" }
	sn := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica,
			transport.UniformLatency(sim.Millisecond/4, 3*sim.Millisecond),
			transport.UniformLatency(sim.Millisecond/2, 4*sim.Millisecond)),
		DropProb: 0.03,
		DupProb:  0.03,
		Sizer:    EstimateSize,
	})
	net := &checkNet{Network: sn}
	stores := make([]StableStore, n)
	for i := range stores {
		stores[i] = NewMemStableStore()
	}
	cluster := NewCluster(ClusterConfig{
		Replicas: n,
		DataType: dtype.Log{},
		Network:  net,
		Options:  Options{Memoize: true, Prune: true},
		Stores:   stores,
	})
	defer cluster.Close()
	cluster.StartSimGossip(s, 5*sim.Millisecond)
	replicas := cluster.LocalReplicas()
	checks, settled, deferrals := 0, 0, 0
	net.after = func() {
		checks++
		if err := crossReplicaErr(replicas); err != nil {
			t.Fatalf("t=%v after delivery %d: %v", s.Now(), checks, err)
		}
		for i, r := range replicas {
			deferred, err := idTableErr(r)
			if err != nil {
				t.Fatalf("t=%v replica %d after delivery %d: %v", s.Now(), i, checks, err)
			}
			if deferred || r.Recovering() {
				deferrals++
				continue
			}
			m, snap := r.Metrics(), r.Snapshot()
			if m.DoneOps != len(snap.Done) || m.StableOps != len(snap.Stable) {
				t.Fatalf("t=%v replica %d after delivery %d: (c) counters done %d stable %d, sets done %d stable %d",
					s.Now(), i, checks, m.DoneOps, m.StableOps, len(snap.Done), len(snap.Stable))
			}
			settled++
		}
	}

	clients := []string{"c0", "c1", "c2"}
	s.Every(30*sim.Millisecond, func() {
		for _, c := range clients {
			cluster.FrontEnd(c).Retransmit()
		}
	})
	submitted, answered := 0, 0
	run := func(k int) {
		for i := 0; i < k; i++ {
			fe := cluster.FrontEnd(clients[submitted%len(clients)])
			fe.Submit(dtype.LogAppend{Entry: fmt.Sprint(submitted)}, nil, submitted%4 == 0, func(Response) { answered++ })
			submitted++
			s.RunFor(sim.Millisecond)
		}
	}

	run(80)
	victim := replicas[n-1]
	sn.SetNodeDown(victim.Node(), true)
	victim.Crash()
	run(30)
	sn.SetNodeDown(victim.Node(), false)
	victim.Recover()
	for i := 0; victim.Recovering(); i++ {
		if i == 40 {
			t.Fatal("crashed replica never finished recovering")
		}
		run(10)
		victim.RetryRecovery()
	}
	run(80)
	s.RunFor(300 * sim.Millisecond)
	sn.SetDropProb(0)
	s.RunFor(3 * sim.Second)

	if answered != submitted {
		t.Fatalf("liveness: %d of %d operations answered after the loss healed", answered, submitted)
	}
	if conv := cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("liveness: no convergence after the loss healed: %s", conv.Reason)
	}
	stable := 0
	for i, r := range replicas {
		if got := r.Metrics().StableOps; got != submitted {
			t.Fatalf("liveness: replica %d holds %d of %d operations stable", i, got, submitted)
		}
		stable += r.Metrics().StableOps
	}
	if stable == 0 || settled == 0 {
		t.Fatalf("nothing to check: %d stable ops, %d settled checks", stable, settled)
	}
	t.Logf("%d deliveries checked (%d replica checks with nothing deferred, %d with deferrals or recovering), %d ops submitted, %d stable across replicas",
		checks, settled, deferrals, submitted, stable)
}
