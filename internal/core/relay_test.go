package core

import (
	"fmt"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// TestDescriptorsCrossOnce pins what the relay rule saves: on a loss-free
// network every descriptor crosses each link out of the replica that
// received its request once, and no other. A 3-replica cluster serving
// ops operations merges exactly 2·ops gossip descriptors and relays none.
// Logging every descriptor gossip brings, as Fig. 7's gossip of all of
// rcvd_r does, merges 3 598 here for 600 operations. Both wire forms run:
// plain frames, and compact ones decoded into the replica's scratch.
func TestDescriptorsCrossOnce(t *testing.T) {
	const n, ops = 3, 600
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			s := sim.New(1)
			sn := transport.NewSimNet(s, transport.SimNetConfig{Latency: transport.FixedLatency(sim.Millisecond), Sizer: EstimateSize})
			var net transport.Network = sn
			if compact {
				RegisterWire()
				net = negotiatingSim{sn}
			}
			cluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Counter{}, Network: net, Options: DefaultOptions()})
			defer cluster.Close()
			cluster.StartSimGossip(s, 5*sim.Millisecond)
			answered := 0
			for i := 0; i < ops; i++ {
				fe := cluster.FrontEnd(fmt.Sprintf("c%d", i%4))
				fe.Submit(dtype.CtrAdd{N: 1}, nil, i%10 == 0, func(Response) { answered++ })
				if i%20 == 19 {
					s.RunFor(sim.Millisecond)
				}
			}
			s.RunFor(sim.Second)
			if answered != ops {
				t.Fatalf("%d of %d operations answered", answered, ops)
			}
			if conv := cluster.CheckConvergence(); !conv.Converged {
				t.Fatalf("no convergence: %s", conv.Reason)
			}
			m := cluster.TotalMetrics()
			if m.StableOps != n*ops {
				t.Fatalf("%d operations stable across replicas, want %d", m.StableOps, n*ops)
			}
			if compact && m.CompactGossipReceived == 0 {
				t.Fatal("no compact frame was merged")
			}
			if m.GossipResent != 0 {
				t.Fatalf("%d frames resent on a loss-free network", m.GossipResent)
			}
			if want := uint64((n - 1) * ops); m.GossipDescriptorsReceived != want || m.DescriptorsRelayed != 0 {
				t.Fatalf("%d gossip descriptors merged and %d relayed, want %d and 0",
					m.GossipDescriptorsReceived, m.DescriptorsRelayed, want)
			}
		})
	}
}

// TestRelayReachesCutPeer is the liveness the relay rule keeps: when the
// replica that received a request cannot send its descriptor to a peer,
// another replica relays it once an acknowledgement timeout has passed.
// Replica 0's link to replica 2 is down, and in the second case replica 0
// also crashes right after its first frame carrying the operation, so
// nothing it holds ever reaches replica 2. Replica 2 must do the operation
// within ackTimeout()+2 gossip rounds of that frame, replica 1's timeout
// taken when the frame left. A warm-up of operations first settles the
// acknowledgement timing.
func TestRelayReachesCutPeer(t *testing.T) {
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("origin-crashed=%v", crash), func(t *testing.T) {
			runRelayReachesCutPeer(t, crash)
		})
	}
}

func runRelayReachesCutPeer(t *testing.T, crash bool) {
	const period = 5 * sim.Millisecond
	s := sim.New(7)
	var cluster *Cluster
	var first sim.Time
	var timeout uint64
	watch := false
	sn := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.FixedLatency(sim.Millisecond),
		Sizer: func(p any) int {
			if g, ok := p.(GossipMsg); ok && watch && g.From == 0 && len(g.R) > 0 && first == 0 {
				first = s.Now()
				r1 := cluster.Replica(1)
				r1.mu.Lock()
				timeout = r1.ackTimeout()
				r1.mu.Unlock()
				if crash {
					s.Schedule(0, cluster.Replica(0).Crash)
				}
			}
			return EstimateSize(p)
		},
	})
	cluster = NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{}, Network: sn, Options: DefaultOptions()})
	defer cluster.Close()
	cluster.StartSimGossip(s, period)
	warm := cluster.FrontEnd("warm")
	for i := 0; i < 50; i++ {
		warm.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
		s.RunFor(sim.Millisecond)
	}
	s.RunFor(200 * sim.Millisecond)
	if got := cluster.Replica(2).Metrics().StableOps; got != 50 {
		t.Fatalf("warm-up: replica 2 holds %d of 50 operations stable", got)
	}

	sn.SetLinkDown(ReplicaNode(0), ReplicaNode(2), true)
	fe := cluster.FrontEnd("c")
	fe.StickTo(ReplicaNode(0))
	watch = true
	x := fe.Submit(dtype.CtrAdd{N: 5}, nil, false, nil)
	done := func() bool {
		r2 := cluster.Replica(2)
		r2.mu.Lock()
		defer r2.mu.Unlock()
		e := r2.ids.get(x.ID)
		return e != nil && e.doneAt(r2.id)
	}
	for !done() {
		if first != 0 && s.Now() > first.Add(sim.Duration(timeout+2)*period) {
			t.Fatalf("replica 2 has not done %v %v after replica 0's first frame carrying it (ackTimeout %d rounds)",
				x.ID, s.Now().Sub(first), timeout)
		}
		if s.Now() > sim.Time(0).Add(10*sim.Second) {
			t.Fatal("replica 0 never sent the operation")
		}
		s.RunFor(sim.Millisecond / 4)
	}
	relayed := cluster.Replica(1).Metrics().DescriptorsRelayed
	t.Logf("replica 2 did the operation %v after replica 0's first frame (ackTimeout %d rounds of %v); replica 1 relayed %d descriptors",
		s.Now().Sub(first), timeout, period, relayed)
	if relayed == 0 {
		t.Fatal("replica 2 has the operation, but replica 1 relayed nothing")
	}
}

// TestRelayCutPeerKeepsPruning is the cost a cut link must not carry past
// the cut peer's delay: under steady load on replica 0 with its link to
// replica 2 down, replica 2 learns each of replica 0's operations done at
// replica 1, with its label, an acknowledgement timeout before the relayed
// descriptor arrives, so at every moment some are deferred. Replica 2's
// memoized prefix must still advance, below the lowest deferred label, so
// it keeps pruning — its retained descriptors stay within what arrives in
// a few acknowledgement timeouts — and it keeps answering the strict reads
// of a client that sticks to it.
func TestRelayCutPeerKeepsPruning(t *testing.T) {
	const (
		period = 5 * sim.Millisecond
		gap    = sim.Millisecond / 4 // one operation at replica 0 per gap
		steps  = 8000                // two seconds of load
		sample = 400                 // steps between samples: 100 ms
	)
	s := sim.New(3)
	sn := transport.NewSimNet(s, transport.SimNetConfig{Latency: transport.FixedLatency(sim.Millisecond), Sizer: EstimateSize})
	cluster := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{}, Network: sn, Options: DefaultOptions()})
	defer cluster.Close()
	cluster.StartSimGossip(s, period)
	sn.SetLinkDown(ReplicaNode(0), ReplicaNode(2), true)

	writer, reader := cluster.FrontEnd("w"), cluster.FrontEnd("r")
	writer.StickTo(ReplicaNode(0))
	reader.StickTo(ReplicaNode(2))
	reads, answered := 0, 0
	var lastMemo int
	for i := 1; i <= steps; i++ {
		writer.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
		if i%40 == 0 {
			reads++
			reader.Submit(dtype.CtrRead{}, nil, true, func(Response) { answered++ })
		}
		s.RunFor(gap)
		if i%sample != 0 || i < 2*sample {
			continue
		}
		r1, r2 := cluster.Replica(1), cluster.Replica(2)
		r1.mu.Lock()
		timeout := r1.ackTimeout()
		r1.mu.Unlock()
		if _, err := idTableErr(r2); err != nil {
			t.Fatalf("%v: replica 2: %v", s.Now(), err)
		}
		m := r2.Metrics()
		// The operations replica 0 receives in ackTimeout()+2 rounds, twice
		// over: those whose relay is due, and those stable and awaiting the
		// memoized prefix.
		bound := 2 * int((sim.Duration(timeout+2)*period)/gap)
		t.Logf("%v: replica 2 memoized %d, retains %d descriptors (bound %d, ackTimeout %d rounds), %d of %d strict reads answered",
			s.Now(), m.MemoizedOps, m.RetainedOps, bound, timeout, answered, reads)
		if m.MemoizedOps <= lastMemo {
			t.Fatalf("%v: replica 2's memoized prefix stayed at %d for 100 ms under load", s.Now(), m.MemoizedOps)
		}
		if m.RetainedOps > bound {
			t.Fatalf("%v: replica 2 retains %d descriptors, more than %d", s.Now(), m.RetainedOps, bound)
		}
		lastMemo = m.MemoizedOps
	}
	if behind := reads - answered; behind > reads/10 {
		t.Fatalf("replica 2 answered %d of %d strict reads under load", answered, reads)
	}
	if cluster.Replica(1).Metrics().DescriptorsRelayed == 0 {
		t.Fatal("replica 1 relayed nothing to the cut peer")
	}
	sn.SetLinkDown(ReplicaNode(0), ReplicaNode(2), false)
	s.RunFor(sim.Second)
	if conv := cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("no convergence after the link healed: %s", conv.Reason)
	}
}

// TestRelayQueueBoundedWithoutRounds merges gossip into a replica that
// runs no gossip round, so no relay deadline ever passes: each frame
// brings 64 descriptors done at its sender and names the previous frame's
// stable. The relay queue must hold no more than twice the descriptors
// not yet done everywhere, rather than one entry per descriptor merged.
func TestRelayQueueBoundedWithoutRounds(t *testing.T) {
	const frames, k = 500, 64
	s := sim.New(1)
	cluster := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{},
		Network: transport.NewSimNet(s, transport.SimNetConfig{}), Options: Options{Memoize: true}})
	defer cluster.Close()
	r := cluster.Replica(0)
	r.mu.Lock()
	defer r.mu.Unlock()
	var prev []IDRun
	for f := range frames {
		run := IDRun{Seq: uint64(f*k + 1), N: k}
		m := GossipMsg{From: 1, Clients: []string{"c"}, D: []IDRun{run}, S: prev,
			L: []LabelRun{{IDRun: run, Label: label.Make(run.Seq, 1)}}}
		for i := range uint64(k) {
			m.R = append(m.R, ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "c", Seq: run.Seq + i}, nil, false))
		}
		r.mergeStateLocked(1, m, true)
		prev = m.D
	}
	if r.doneLocal != frames*k || r.stableLocal != (frames-1)*k {
		t.Fatalf("%d done and %d stable of %d merged", r.doneLocal, r.stableLocal, frames*k)
	}
	if n := len(r.relayQueue); n > 4*k {
		t.Fatalf("the relay queue holds %d entries for %d descriptors not yet done everywhere", n, k)
	}
}
