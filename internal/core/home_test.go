package core

import (
	"fmt"
	"math/rand"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/spec"
	"esds/internal/transport"
)

// homeNode is the replica an unsharded batched front end for client
// starts at.
func homeNode(client string, n int) transport.NodeID {
	return ReplicaNode(label.ReplicaID(homeIndex(client, 0, n)))
}

// replicaIndex is the index of a replica node among n.
func replicaIndex(t *testing.T, node transport.NodeID, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if ReplicaNode(label.ReplicaID(i)) == node {
			return i
		}
	}
	t.Fatalf("%q is not one of %d replicas", node, n)
	return -1
}

// after is the replica k places after node among n.
func after(t *testing.T, node transport.NodeID, k, n int) transport.NodeID {
	t.Helper()
	return ReplicaNode(label.ReplicaID((replicaIndex(t, node, n) + k) % n))
}

// TestBatchedFrontEndSendsToHome: a batched front end sends every request
// frame to its home — FNV-1a of the client name (plus the shard, 0 here),
// mod n — and nothing to
// the other replicas, so its stream fills one target's batches.
func TestBatchedFrontEndSendsToHome(t *testing.T) {
	const n, perClient = 3, 50
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Counter{}, Network: net, Options: batchOptions()})
	cluster.StartSimGossip(s, 5*sim.Millisecond)
	defer cluster.Close()

	clients := []string{"w0", "w1"}
	if homeNode(clients[0], n) == homeNode(clients[1], n) {
		t.Fatalf("test clients share home %s", homeNode(clients[0], n))
	}
	want := make(map[transport.NodeID]uint64)
	answered := 0
	for _, c := range clients {
		fe := cluster.FrontEnd(c)
		if got := fe.NextTarget(); got != homeNode(c, n) {
			t.Fatalf("client %s: next target %s, want home %s", c, got, homeNode(c, n))
		}
		s.Every(sim.Millisecond, fe.Flush)
		for i := 0; i < perClient; i++ {
			fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(Response) { answered++ })
		}
		want[homeNode(c, n)] += perClient
	}
	s.RunFor(50 * sim.Millisecond)
	if answered != len(clients)*perClient {
		t.Fatalf("%d of %d operations answered", answered, len(clients)*perClient)
	}
	for i := 0; i < n; i++ {
		r := cluster.Replica(i)
		m := r.Metrics()
		if m.RequestsReceived != want[r.Node()] {
			t.Fatalf("replica %d received %d requests, want %d", i, m.RequestsReceived, want[r.Node()])
		}
		if want[r.Node()] > 0 && m.RequestBatchesReceived == 0 {
			t.Fatalf("replica %d received no request batch", i)
		}
	}
}

// TestShardsSpreadOneClientsHomes: one client's front ends in consecutive
// shards start at consecutive replica indices, so a client of a sharded
// keyspace does not send every shard's stream to the same member.
func TestShardsSpreadOneClientsHomes(t *testing.T) {
	const n = 3
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	first := homeIndex("alice", 0, n)
	for shard := 0; shard < 2*n; shard++ {
		cluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Counter{}, Network: net, Shard: shard, Options: batchOptions()})
		want := ReplicaNodeIn(shard, label.ReplicaID((first+shard)%n))
		if got := cluster.FrontEnd("alice").NextTarget(); got != want {
			t.Fatalf("shard %d: home %s, want %s", shard, got, want)
		}
		cluster.Close()
	}
}

// TestUnbatchedFrontEndRoundRobin: without batching a front end still
// moves to the next replica on every operation.
func TestUnbatchedFrontEndRoundRobin(t *testing.T) {
	const n, rounds = 3, 4
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Counter{}, Network: net, Options: DefaultOptions()})
	defer cluster.Close()
	fe := cluster.FrontEnd("w0")
	for i := 0; i < n*rounds; i++ {
		if got, want := fe.NextTarget(), ReplicaNode(label.ReplicaID(i%n)); got != want {
			t.Fatalf("operation %d: next target %s, want %s", i, got, want)
		}
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	}
	s.RunFor(10 * sim.Millisecond)
	for i := 0; i < n; i++ {
		if got := cluster.Replica(i).Metrics().RequestsReceived; got != rounds {
			t.Fatalf("replica %d received %d requests, want %d", i, got, rounds)
		}
	}
}

// TestRetransmitFailsOverFromSilentHome walks a batched front end through
// the failover rule. Re-sends go to the replica after the home; a home that
// has owed an answer across a whole tick is left for the next replica, at
// the second tick after the submission it did not answer; a home that
// answers is never left, not even while an operation it cannot finish
// stays pending across ticks — that operation alternates between the two
// replicas after the home instead.
func TestRetransmitFailsOverFromSilentHome(t *testing.T) {
	const n = 3
	newEnv := func() (*sim.Sim, *transport.SimNet, *Cluster, *FrontEnd) {
		s := sim.New(1)
		net := transport.NewSimNet(s, transport.SimNetConfig{})
		cluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Counter{}, Network: net, Options: batchOptions()})
		cluster.StartSimGossip(s, 5*sim.Millisecond)
		t.Cleanup(cluster.Close)
		fe := cluster.FrontEnd("w0")
		s.Every(sim.Millisecond, fe.Flush)
		return s, net, cluster, fe
	}
	requests := func(c *Cluster, node transport.NodeID) uint64 {
		return c.Replica(replicaIndex(t, node, n)).Metrics().RequestsReceived
	}

	t.Run("silent home", func(t *testing.T) {
		s, net, cluster, fe := newEnv()
		home := fe.NextTarget()
		net.SetNodeDown(home, true)
		answered := false
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(Response) { answered = true })
		s.RunFor(10 * sim.Millisecond)
		if answered {
			t.Fatal("answered by a replica that is down")
		}
		if got := fe.Retransmit(); got != 1 {
			t.Fatalf("first tick re-sent %d requests, want 1", got)
		}
		s.RunFor(10 * sim.Millisecond)
		if !answered || requests(cluster, after(t, home, 1, n)) != 1 {
			t.Fatalf("re-send not answered by the replica after the home (answered %v)", answered)
		}
		if got := fe.NextTarget(); got != home {
			t.Fatalf("home moved to %s at the first tick after the submission", got)
		}
		fe.Retransmit()
		if got, want := fe.NextTarget(), after(t, home, 1, n); got != want {
			t.Fatalf("home %s after a whole tick of silence, want %s", got, want)
		}
		// With nothing new sent to it, the new home owes nothing: it stays.
		fe.Retransmit()
		fe.Retransmit()
		if got, want := fe.NextTarget(), after(t, home, 1, n); got != want {
			t.Fatalf("home moved on to %s with nothing owed", got)
		}
	})

	t.Run("healthy home", func(t *testing.T) {
		s, _, cluster, fe := newEnv()
		home := fe.NextTarget()
		for tick := 0; tick < 6; tick++ {
			// Submitted just before the tick, so every tick finds it pending.
			fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
			if got := fe.Retransmit(); got != 1 {
				t.Fatalf("tick %d re-sent %d requests, want 1", tick, got)
			}
			s.RunFor(10 * sim.Millisecond)
			if got := fe.NextTarget(); got != home {
				t.Fatalf("tick %d: healthy home left for %s", tick, got)
			}
		}
		if got := requests(cluster, after(t, home, 1, n)); got != 6 {
			t.Fatalf("replica after the home received %d re-sends, want 6", got)
		}
	})

	t.Run("stuck operation", func(t *testing.T) {
		s, net, _, fe := newEnv()
		home := fe.NextTarget()
		// The replica two after the home is down: a strict operation never
		// becomes stable, while the home keeps answering everything else.
		net.SetNodeDown(after(t, home, 2, n), true)
		strict := fe.Submit(dtype.CtrAdd{N: 1}, nil, true, nil)
		lastSent := func() transport.NodeID {
			fe.mu.Lock()
			defer fe.mu.Unlock()
			return fe.wait[strict.ID].to
		}
		for tick := 0; tick < 6; tick++ {
			answered := false
			fe.Submit(dtype.CtrRead{}, nil, false, func(Response) { answered = true })
			s.RunFor(40 * sim.Millisecond)
			if !answered {
				t.Fatalf("tick %d: the home did not answer", tick)
			}
			fe.Retransmit()
			if got := fe.NextTarget(); got != home {
				t.Fatalf("tick %d: a home that answers was left for %s", tick, got)
			}
			if got, want := lastSent(), after(t, home, 1+tick%2, n); got != want {
				t.Fatalf("tick %d: stuck operation re-sent to %s, want %s", tick, got, want)
			}
		}
		if fe.Pending() != 1 {
			t.Fatalf("%d operations pending, want the strict one", fe.Pending())
		}
	})
}

// TestDistinctHomesStayDistinct: front ends that move all move by one, so
// two front ends whose homes differ still differ after every move.
func TestDistinctHomesStayDistinct(t *testing.T) {
	const n = 3
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Counter{}, Network: net, Options: batchOptions()})
	defer cluster.Close()
	for i := 0; i < n; i++ {
		net.SetNodeDown(ReplicaNode(label.ReplicaID(i)), true)
	}
	fes := []*FrontEnd{cluster.FrontEnd("w0"), cluster.FrontEnd("w1")}
	homes := []transport.NodeID{fes[0].NextTarget(), fes[1].NextTarget()}
	if homes[0] == homes[1] {
		t.Fatalf("test clients share home %s", homes[0])
	}
	for move := 1; move <= 2*n; move++ {
		for _, fe := range fes {
			fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
			fe.Retransmit()
			fe.Retransmit()
		}
		s.RunFor(10 * sim.Millisecond)
		a, b := fes[0].NextTarget(), fes[1].NextTarget()
		if want := after(t, homes[0], move, n); a != want {
			t.Fatalf("move %d: first home %s, want %s", move, a, want)
		}
		if want := after(t, homes[1], move, n); b != want {
			t.Fatalf("move %d: second home %s, want %s", move, b, want)
		}
	}
}

// TestHomeFailoverLiveness is the liveness cell for home routing: two
// batched clients run closed loops of Log appends and reads, one in ten
// strict, while the first client's home is cut off from both front ends
// (its gossip with the other replicas is untouched, so strict operations
// can still become stable). Every operation must be answered, none may
// wait more than two retransmit periods, the client must leave the cut
// home — at most two windows of its operations wait for a re-send — and
// the converged order must explain every strict answer.
func TestHomeFailoverLiveness(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runHomeFailover(t, seed) })
	}
}

func runHomeFailover(t *testing.T, seed int64) {
	const (
		n         = 3
		window    = 8
		perClient = 400
		period    = 40 * sim.Millisecond
		cutAt     = sim.Time(30 * sim.Millisecond)
	)
	s := sim.New(seed)
	isReplica := func(id transport.NodeID) bool {
		return len(id) > 8 && id[:8] == "replica:"
	}
	net := transport.NewSimNet(s, transport.SimNetConfig{
		Latency: transport.ClassLatency(isReplica,
			transport.UniformLatency(200*sim.Microsecond, 2*sim.Millisecond),
			transport.UniformLatency(500*sim.Microsecond, 4*sim.Millisecond)),
		Sizer: EstimateSize,
	})
	opt := batchOptions()
	cluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Log{}, Network: net, Options: opt})
	cluster.StartSimGossip(s, 5*sim.Millisecond)
	defer cluster.Close()

	clients := []string{"w0", "w1"}
	cut := homeNode(clients[0], n)
	var feNodes []transport.NodeID
	for _, c := range clients {
		fe := cluster.FrontEnd(c)
		feNodes = append(feNodes, fe.Node())
		s.Every(period, func() { fe.Retransmit() })
		s.Every(sim.FromStd(opt.BatchDelay), fe.Flush)
	}
	s.ScheduleAt(cutAt, func() { net.PartitionBetween(feNodes, []transport.NodeID{cut}, false) })

	type outcome struct {
		x     ops.Operation
		sent  sim.Time
		value dtype.Value
		wait  sim.Duration
		done  bool
	}
	var all []*outcome
	rng := rand.New(rand.NewSource(seed))
	issued := make(map[string]int)
	var submit func(c string)
	submit = func(c string) {
		if issued[c] == perClient {
			return
		}
		issued[c]++
		var op dtype.Operator = dtype.LogAppend{Entry: fmt.Sprintf("%s-%d", c, issued[c])}
		if rng.Intn(4) == 0 {
			op = dtype.LogLen{}
		}
		o := &outcome{sent: s.Now()}
		all = append(all, o)
		o.x = cluster.FrontEnd(c).Submit(op, nil, rng.Intn(10) == 0, func(r Response) {
			o.value, o.wait, o.done = r.Value, s.Now().Sub(o.sent), true
			submit(c)
		})
	}
	for _, c := range clients {
		for i := 0; i < window; i++ {
			submit(c)
		}
	}
	s.RunUntil(sim.Time(3 * sim.Second))

	if got := cluster.FrontEnd(clients[0]).NextTarget(); got == cut {
		t.Fatalf("client %s never left its cut-off home %s", clients[0], cut)
	}
	slow := 0
	for _, o := range all {
		if !o.done {
			t.Fatalf("operation %v never answered", o.x.ID)
		}
		if o.wait > 2*period {
			t.Fatalf("operation %v waited %v, more than two retransmit periods", o.x.ID, o.wait)
		}
		if o.x.ID.Client == clients[0] && o.wait > period/2 {
			slow++
		}
	}
	// Before the cut the home answers within a few milliseconds; after it,
	// the window in flight and the one submitted at the first tick wait for
	// a re-send, and then the client has left the home.
	if slow > 2*window {
		t.Fatalf("%d of client %s's operations waited for a re-send, want at most %d", slow, clients[0], 2*window)
	}
	conv := cluster.CheckConvergence()
	if !conv.Converged {
		t.Fatalf("no convergence: %s", conv.Reason)
	}
	requested := make([]ops.Operation, 0, len(all))
	strictResponses := make(map[ops.ID]dtype.Value)
	for _, o := range all {
		requested = append(requested, o.x)
		if o.x.Strict {
			strictResponses[o.x.ID] = o.value
		}
	}
	if len(conv.Order) != len(requested) {
		t.Fatalf("order has %d operations, submitted %d", len(conv.Order), len(requested))
	}
	if err := spec.ExplainStrictResponses(dtype.Log{}, requested, conv.Order, strictResponses); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialClientNeverWaitsForFlush: a batched client that waits for
// each answer before its next submission finds nothing else pending every
// time, so each submission is sent at once even though its home stays
// open — with no flush tick at all, every operation is answered within one
// round trip.
func TestSequentialClientNeverWaitsForFlush(t *testing.T) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{}) // 1ms per link
	cluster := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: batchOptions()})
	defer cluster.Close()
	fe := cluster.FrontEnd("w0")
	for i := 0; i < 10; i++ {
		answered := false
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(Response) { answered = true })
		s.RunFor(2 * sim.Millisecond)
		if !answered {
			t.Fatalf("operation %d not answered within one round trip", i)
		}
	}
	if got := cluster.Replica(homeIndex("w0", 0, 3)).Metrics().RequestsReceived; got != 10 {
		t.Fatalf("home received %d requests, want 10", got)
	}
}
