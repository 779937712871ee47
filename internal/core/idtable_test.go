package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
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
//	    7.15 orders exactly done_r[r]);
//	(g) the records counted in strictLive are received and not stable at
//	    every replica, every retained strict descriptor not yet stable at
//	    every replica is counted, and the count is strictLive.
//
// It reports whether anything was deferred, which (c) needs.
func idTableErr(r *Replica) (deferred bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return false, nil
	}
	live := 0
	for e := range r.ids.all() {
		id := e.id
		if e.has(recStrictLive) {
			live++
			if !e.has(recRcvd) || e.stable == r.all {
				return false, fmt.Errorf("(g) %v counted unsettled strict, but received %v, stable mask %b of %b", id, e.has(recRcvd), e.stable, r.all)
			}
		} else if x, ok := e.descriptor(); ok && x.Strict && e.stable != r.all {
			return false, fmt.Errorf("(g) %v is strict and stable mask %b of %b, but not counted unsettled", id, e.stable, r.all)
		}
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
	for e := range r.ids.all() {
		if id := e.id; e.doneAt(r.id) != inSeq[id] {
			return false, fmt.Errorf("(e) %v: done bit %v, in the local order %v", id, e.doneAt(r.id), inSeq[id])
		}
	}
	if live != r.strictLive {
		return false, fmt.Errorf("(g) strictLive %d, but %d records are unsettled strict", r.strictLive, live)
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
		for e := range r.ids.all() {
			id := e.id
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

// TestIDStreamsMatchMapModel runs random insert orders into an idTable
// beside a map[ops.ID]*idRec model: dense sequence numbers (a pipelined
// client), stride-4 ones (a keyspace client's sequence spread over 4
// shards) and lone ones up to 2^64−1, for 1 to 200 clients, past several
// 512-record chunks. get, rec and label must agree with the model for
// every id known and for ids never inserted, a record's pointer must not
// move as the table grows, and all() must yield exactly the records in
// the order they were created.
func TestIDStreamsMatchMapModel(t *testing.T) {
	kinds := []struct {
		name  string
		seqOf func(rng *rand.Rand, i int) uint64
	}{
		{"dense", func(_ *rand.Rand, i int) uint64 { return uint64(i) }},
		{"stride4", func(_ *rand.Rand, i int) uint64 { return uint64(4*i + 1) }},
		{"lone", func(rng *rand.Rand, i int) uint64 {
			if i == 0 {
				return math.MaxUint64
			}
			return rng.Uint64()
		}},
	}
	for _, kind := range kinds {
		name, seqOf := kind.name, kind.seqOf
		for _, clients := range []int{1, 7, 200} {
			t.Run(fmt.Sprintf("%s/clients=%d", name, clients), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name)*1000 + clients)))
				var universe []ops.ID
				for c := 0; c < clients; c++ {
					for i := 0; i < 2400/clients+3; i++ {
						universe = append(universe, ops.ID{Client: fmt.Sprintf("client-%d", c), Seq: seqOf(rng, i)})
					}
				}
				rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
				// A quarter of the universe is never inserted: lookups of
				// it must miss.
				absent := universe[:len(universe)/4]
				insert := universe[len(universe)/4:]
				runIDStreamsModel(t, rng, insert, absent)
			})
		}
	}
}

func runIDStreamsModel(t *testing.T, rng *rand.Rand, insert, absent []ops.ID) {
	tab := newIDTable()
	model := make(map[ops.ID]*idRec)
	var created []*idRec
	check := func() {
		for id, want := range model {
			if got := tab.get(id); got != want {
				t.Fatalf("get(%v) = %p, model %p", id, got, want)
			}
			if got := tab.label(id); got != want.label {
				t.Fatalf("label(%v) = %v, model %v", id, got, want.label)
			}
		}
		for _, id := range absent {
			if model[id] != nil {
				continue // a lone sequence number drawn twice
			}
			if e := tab.get(id); e != nil {
				t.Fatalf("get(%v) of an id never inserted = %+v", id, e.id)
			}
			if l := tab.label(id); !l.IsInf() {
				t.Fatalf("label(%v) of an id never inserted = %v", id, l)
			}
		}
		i := 0
		for e := range tab.all() {
			if i >= len(created) || e != created[i] {
				t.Fatalf("all() yields %v at position %d, not the record created there", e.id, i)
			}
			i++
		}
		if i != len(created) || tab.n != len(created) {
			t.Fatalf("all() yields %d records, n = %d, %d were created", i, tab.n, len(created))
		}
	}
	for step, id := range insert {
		// Revisit a known id now and then, as a merge does.
		if len(created) > 0 && rng.Intn(4) == 0 {
			old := created[rng.Intn(len(created))]
			if got := tab.rec(old.id); got != old {
				t.Fatalf("rec(%v) of a known id = %p, model %p", old.id, got, old)
			}
		}
		e := tab.rec(id)
		if want, ok := model[id]; ok {
			if e != want {
				t.Fatalf("rec(%v) again = %p, model %p", id, e, want)
			}
			continue
		}
		if e.id != id || !e.label.IsInf() || e.flags != 0 {
			t.Fatalf("rec(%v) created %+v, want an empty record", id, *e)
		}
		if rng.Intn(2) == 0 {
			e.setLabelMin(label.Make(uint64(step+1), label.ReplicaID(rng.Intn(3))))
		}
		model[id] = e
		created = append(created, e)
		if step%500 == 0 {
			check()
		}
	}
	check()
	if len(tab.chunks) < 3 {
		t.Fatalf("%d records filled %d chunks: the test never grew the table past a chunk", len(created), len(tab.chunks))
	}
}

// TestIDStreamsHostileMemory merges one gossip frame of k identifiers, each
// alone in its 64-slot page — sequence numbers 64 apart, and one at 2^64−1
// — into a replica, and bounds the heap the replica grows by at 1 KiB per
// identifier: a page per lone identifier must not amplify memory much
// beyond the record it indexes.
func TestIDStreamsHostileMemory(t *testing.T) {
	const k = 4096
	s := sim.New(1)
	c := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{},
		Network: transport.NewSimNet(s, transport.SimNetConfig{})})
	r0 := c.Replica(0)
	g := GossipMsg{From: 1}
	for i := 0; i < k; i++ {
		id := ops.ID{Client: "hostile", Seq: uint64(i) << 6}
		if i == k-1 {
			id.Seq = math.MaxUint64
		}
		g.R = append(g.R, ops.New(dtype.CtrAdd{N: 1}, id, nil, false))
		g.D = append(g.D, id)
		g.L = append(g.L, IDLabel{ID: id, Label: label.Make(uint64(i+1), 1)})
	}
	g = nextFrame(r0, g)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	r0.handleMessage(transport.Message{Payload: g})
	after := heap()
	runtime.KeepAlive(g)
	if got := r0.Metrics().DoneOps; got != k {
		t.Fatalf("the frame left %d of %d operations done", got, k)
	}
	r0.mu.Lock()
	pages := len(r0.ids.stream("hostile").pages)
	r0.mu.Unlock()
	if pages != k {
		t.Fatalf("%d identifiers filled %d pages, want one each", k, pages)
	}
	perID := float64(int64(after)-int64(before)) / k
	t.Logf("heap growth %.0f B per lone identifier", perID)
	if perID > 1024 {
		t.Fatalf("heap grew %.0f B per lone identifier, bound 1024", perID)
	}
	runtime.KeepAlive(r0)
}
