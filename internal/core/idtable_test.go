package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
//	    every replica is counted, and the count is strictLive;
//	(i) an id done at a peer whose descriptor has not arrived here — a
//	    peer's done entry may overtake the descriptor, which its sender
//	    relays only when overdue (gossip.go) — is deferred, and no
//	    memoized position lies above its label: the memoized prefix waits
//	    for it.
//
// It reports whether anything was deferred, which (c) needs. memoValueErr
// checks (h), the values.
func idTableErr(r *Replica) (deferred bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return false, nil
	}
	live := 0
	for e := range r.ids.all() {
		id := r.ids.id(e)
		if e.has(recStrictLive) {
			live++
			if !e.has(recRcvd) || e.stable == r.all {
				return false, fmt.Errorf("(g) %v counted unsettled strict, but received %v, stable mask %b of %b", id, e.has(recRcvd), e.stable, r.all)
			}
		} else if x, ok := r.ids.descriptor(e); ok && x.Strict && e.stable != r.all {
			return false, fmt.Errorf("(g) %v is strict and stable mask %b of %b, but not counted unsettled", id, e.stable, r.all)
		}
		if e.doneAt(r.id) && !e.labeled() {
			return false, fmt.Errorf("(d) %v is done without a label", id)
		}
		if e.done&^(1<<r.id) != 0 && !e.has(recRcvd) {
			if !e.has(recDeferred) {
				return false, fmt.Errorf("(i) %v is done at peers (mask %b) with no descriptor here, but not deferred", id, e.done)
			}
			if e.labeled() && r.memoized > 0 && e.label().Less(r.lastMemoLabel) {
				return false, fmt.Errorf("(i) %v waits for its descriptor at label %v, below the memoized frontier %v", id, e.label(), r.lastMemoLabel)
			}
		}
		if e.has(recDeferred) {
			continue
		}
		if e.labeled() && e.stableAt(r.id) != (e.done == r.all) {
			return false, fmt.Errorf("(a) %v: stable here %v, done mask %b of %b", id, e.stableAt(r.id), e.done, r.all)
		}
		if e.stable != 0 && e.done != r.all {
			return false, fmt.Errorf("(b) %v: stable mask %b but done mask %b of %b", id, e.stable, e.done, r.all)
		}
	}
	for i, h := range r.doneSeq[:r.memoized] {
		if e := r.ids.at(h); !e.has(recMemo) {
			return false, fmt.Errorf("(d) memoized position %d (%v) has no value", i, r.ids.id(e))
		}
	}
	inSeq := make(map[ops.ID]bool, len(r.doneSeq))
	for _, id := range r.doneIDs(r.doneSeq) {
		inSeq[id] = true
	}
	for e := range r.ids.all() {
		if id := r.ids.id(e); e.doneAt(r.id) != inSeq[id] {
			return false, fmt.Errorf("(e) %v: done bit %v, in the local order %v", id, e.doneAt(r.id), inSeq[id])
		}
	}
	if live != r.strictLive {
		return false, fmt.Errorf("(g) strictLive %d, but %d records are unsettled strict", r.strictLive, live)
	}
	return len(r.deferredQueue) > 0, nil
}

// memoReplay is the test's own replay of one replica's memoized prefix,
// from the descriptors it submitted.
type memoReplay struct {
	st   dtype.State
	vals []dtype.Value // the value of each position replayed so far
}

// memoValueErr checks (h): every memoized position's retained value
// decodes to the value its operation has at that position of the solid
// prefix — what memoization, or the peer whose snapshot seeded it,
// computed. The solid prefix is a prefix of one eventual order, so a
// replay extends across a crash; only positions not yet replayed are
// applied. With all, every memoized value is decoded again.
func memoValueErr(r *Replica, descs map[ops.ID]ops.Operation, m *memoReplay, all bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return nil
	}
	if m.st == nil {
		m.st = r.dt.Initial()
	}
	for i := len(m.vals); i < r.memoized; i++ {
		x, ok := descs[r.ids.id(r.ids.at(r.doneSeq[i]))]
		if !ok {
			return fmt.Errorf("(h) memoized position %d holds an operation never submitted", i)
		}
		var v dtype.Value
		m.st, v = r.dt.Apply(m.st, x.Op)
		m.vals = append(m.vals, v)
	}
	from := 0
	if !all {
		from = max(0, r.memoized-8)
	}
	for i := from; i < r.memoized; i++ {
		e := r.ids.at(r.doneSeq[i])
		if got := r.ids.memoOf(e); !reflect.DeepEqual(got, m.vals[i]) {
			return fmt.Errorf("(h) memoized position %d (%v) holds %T %v, the replay gives %T %v", i, r.ids.id(e), got, got, m.vals[i], m.vals[i])
		}
	}
	return nil
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
			id := r.ids.id(e)
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
// every replica, the replicas must converge, and every memoized value must
// still decode to the one replayed (h).
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
	descs := make(map[ops.ID]ops.Operation)
	replays := make([]memoReplay, n)
	checks, settled, deferrals := 0, 0, 0
	net.after = func() {
		checks++
		if err := crossReplicaErr(replicas); err != nil {
			t.Fatalf("t=%v after delivery %d: %v", s.Now(), checks, err)
		}
		for i, r := range replicas {
			deferred, err := idTableErr(r)
			if err == nil {
				err = memoValueErr(r, descs, &replays[i], false)
			}
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
			x := fe.Submit(dtype.LogAppend{Entry: fmt.Sprint(submitted)}, nil, submitted%4 == 0, func(Response) { answered++ })
			descs[x.ID] = x
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
		if err := memoValueErr(r, descs, &replays[i], true); err != nil {
			t.Fatalf("replica %d at the end: %v", i, err)
		}
		if got := r.Metrics().MemoizedOps; got != submitted {
			t.Fatalf("replica %d memoized %d of %d operations", i, got, submitted)
		}
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

// TestDescriptorSlabSteadyState swings a table between 3 000 and 30
// retained descriptors once per gossip round, as a loaded replica's
// retained descriptors swing within a round: after the first round,
// retaining, pruning and the round's trim allocate nothing — the slab
// neither shrinks nor regrows — and once every descriptor is pruned the
// rounds give the slab's memory back.
func TestDescriptorSlabSteadyState(t *testing.T) {
	tab := newIDTable()
	recs := make([]*idRec, 3000)
	for i := range recs {
		recs[i] = tab.rec(ops.ID{Client: "c", Seq: uint64(i)})
	}
	x := ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "c", Seq: 1}, nil, false)
	round := func() {
		for _, e := range recs {
			if !e.has(recRetained) {
				tab.retain(e, x)
			}
		}
		for _, e := range recs[30:] {
			tab.unretain(e)
		}
		tab.trimDescs()
	}
	round()
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Fatalf("a round swinging between 3000 and 30 descriptors allocated %.1f times", a)
	}
	grown := cap(tab.descs)
	for _, e := range recs {
		if !e.has(recRetained) {
			tab.retain(e, x)
		}
	}
	for _, e := range recs {
		tab.unretain(e)
	}
	tab.trimDescs()
	if cap(tab.descs) != grown {
		t.Fatalf("the round that pruned everything shrank the slab from %d to %d: it held 3000 in that round", grown, cap(tab.descs))
	}
	for range 3 {
		tab.trimDescs()
	}
	if c := cap(tab.descs); c > 64 {
		t.Fatalf("three empty rounds left a slab of %d (grown to %d)", c, grown)
	}
}

// TestIDStreamsMatchMapModel runs random insert orders into an idTable
// beside a map[ops.ID]*idRec model: dense sequence numbers (a pipelined
// client), stride-4 ones (a keyspace client's sequence spread over 4
// shards) and lone ones up to 2^64−1, for 1 to 200 clients, past several
// 512-record chunks. get and rec must agree with the model for every id
// known and for ids never inserted, a record's pointer must not move as
// the table grows, and all() must yield exactly the records in the order
// they were created. Most records retain a descriptor and some are pruned
// again: descriptor must return what each retained, however the slab
// moved it.
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
	descs := make(map[*idRec]ops.Operation) // the descriptors retained
	var created []*idRec
	check := func() {
		for id, want := range model {
			if got := tab.get(id); got != want {
				t.Fatalf("get(%v) = %p, model %p", id, got, want)
			}
			x, ok := tab.descriptor(want)
			if wantX, retained := descs[want]; ok != retained || ok && x.Op != wantX.Op {
				t.Fatalf("descriptor(%v) = %v %v, model %v %v", id, x, ok, wantX, retained)
			}
		}
		if len(tab.descs) != len(descs) {
			t.Fatalf("the slab holds %d descriptors, %d are retained", len(tab.descs), len(descs))
		}
		for _, id := range absent {
			if model[id] != nil {
				continue // a lone sequence number drawn twice
			}
			if e := tab.get(id); e != nil {
				t.Fatalf("get(%v) of an id never inserted = %+v", id, tab.id(e))
			}
		}
		i := 0
		for e := range tab.all() {
			if i >= len(created) || e != created[i] {
				t.Fatalf("all() yields %v at position %d, not the record created there", tab.id(e), i)
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
			if got := tab.rec(tab.id(old)); got != old {
				t.Fatalf("rec(%v) of a known id = %p, model %p", tab.id(old), got, old)
			}
			// Prune it, as §10.2 does: the slab moves another descriptor.
			if _, ok := descs[old]; ok != tab.unretain(old) {
				t.Fatalf("unretain(%v) disagrees with the model (retained %v)", tab.id(old), ok)
			}
			delete(descs, old)
		}
		e := tab.rec(id)
		if want, ok := model[id]; ok {
			if e != want {
				t.Fatalf("rec(%v) again = %p, model %p", id, e, want)
			}
			continue
		}
		if tab.id(e) != id || e.labeled() || e.flags != 0 || tab.at(e.h) != e {
			t.Fatalf("rec(%v) created %+v, want an empty record", id, *e)
		}
		if rng.Intn(2) == 0 {
			e.setLabelMin(label.Make(uint64(step+1), label.ReplicaID(rng.Intn(3))))
		}
		if rng.Intn(3) != 0 {
			x := ops.New(dtype.CtrAdd{N: int64(step)}, id, nil, false)
			tab.retain(e, x)
			descs[e] = x
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
// — into a replica, and bounds the heap the replica grows by at 600 B per
// identifier: a page per lone identifier must not amplify memory much
// beyond the record it indexes. It measures 479 B (a 256-B page, a 64-B
// record, the retained descriptor and its change log entries); the bound
// leaves a quarter for the runtime's size classes.
func TestIDStreamsHostileMemory(t *testing.T) {
	const k = 4096
	s := sim.New(1)
	c := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{},
		Network: transport.NewSimNet(s, transport.SimNetConfig{})})
	r0 := c.Replica(0)
	g := GossipMsg{From: 1}
	var d []ops.ID
	var l []idLabel
	for i := 0; i < k; i++ {
		id := ops.ID{Client: "hostile", Seq: uint64(i) << 6}
		if i == k-1 {
			id.Seq = math.MaxUint64
		}
		g.R = append(g.R, ops.New(dtype.CtrAdd{N: 1}, id, nil, false))
		d, l = append(d, id), append(l, idLabel{id, label.Make(uint64(i+1), 1)})
	}
	g = nextFrame(r0, withRuns(g, d, l, nil))
	before := heapAfterGC()
	r0.handleMessage(transport.Message{Payload: g})
	after := heapAfterGC()
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
	if perID > 600 {
		t.Fatalf("heap grew %.0f B per lone identifier, bound 600", perID)
	}
	runtime.KeepAlive(r0)
}

// heapAfterGC returns the bytes of live heap after a collection.
func heapAfterGC() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestIDStreamsDenseMemory merges 100k dense identifiers, stable at every
// replica, in gossip frames of at most maxFrameEntries entries, into one
// replica of three that
// memoizes and prunes, and bounds the heap the replica grows by at 150 B
// per identifier: a record, its page slot and local-order handle, its
// memoized value and its change log entries, with the descriptors pruned.
// It measures 118 B (387 B when records held their descriptors, values and
// key as fields).
func TestIDStreamsDenseMemory(t *testing.T) {
	const k = 100_000
	s := sim.New(1)
	c := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{}, Options: Options{Memoize: true, Prune: true},
		Network: transport.NewSimNet(s, transport.SimNetConfig{})})
	r0 := c.Replica(0)
	// The operations arrive as an honest sender's frames: R, L and S of
	// each, at most maxFrameEntries entries a frame.
	const perFrame = maxFrameEntries / 3
	var frames []GossipMsg
	for lo := 0; lo < k; lo += perFrame {
		n := uint32(min(perFrame, k-lo))
		run := IDRun{Seq: uint64(lo), N: n}
		g := GossipMsg{From: 1, Clients: []string{"dense"}, L: []LabelRun{{IDRun: run, Label: label.Make(uint64(lo+1), 1)}},
			S: []IDRun{run}}
		for i := range uint64(n) {
			g.R = append(g.R, ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "dense", Seq: run.Seq + i}, nil, false))
		}
		frames = append(frames, g)
	}
	before := heapAfterGC()
	for _, g := range frames {
		r0.handleMessage(transport.Message{Payload: nextFrame(r0, g)})
	}
	after := heapAfterGC()
	runtime.KeepAlive(frames)
	m := r0.Metrics()
	if m.StableOps != k || m.MemoizedOps != k || m.RetainedOps != 0 {
		t.Fatalf("the frames left %d stable, %d memoized and %d retained of %d operations", m.StableOps, m.MemoizedOps, m.RetainedOps, k)
	}
	perID := float64(int64(after)-int64(before)) / k
	t.Logf("heap growth %.0f B per dense identifier; HistoryBytes %d B per identifier", perID, m.HistoryBytes/k)
	if perID > 150 {
		t.Fatalf("heap grew %.0f B per dense identifier, bound 150", perID)
	}
	runtime.KeepAlive(r0)
}

// TestRetainedHistoryHasNoPointers keeps the retained history invisible to
// the collector: a record, a page, an element of the local order or of the
// change log that held a string, slice, map, pointer, interface, func or
// chan would make the runtime scan every operation a replica has seen.
func TestRetainedHistoryHasNoPointers(t *testing.T) {
	var r Replica
	for _, typ := range []reflect.Type{
		reflect.TypeOf(idRec{}),
		reflect.TypeOf(idPage{}),
		reflect.TypeOf(r.doneSeq).Elem(),
		reflect.TypeOf(r.glog).Elem(),
	} {
		if path, ok := pointerIn(typ, typ.String()); ok {
			t.Errorf("%s holds a pointer: %s", typ, path)
		}
	}
	if size := reflect.TypeOf(idRec{}).Size(); size > 64 {
		t.Errorf("idRec is %d bytes, bound 64", size)
	}
}

// pointerIn returns the path to a pointer-bearing part of typ.
func pointerIn(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
		reflect.Interface, reflect.Func, reflect.Chan:
		return path + " (" + typ.Kind().String() + ")", true
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
	}
	return "", false
}

// TestValueArenaRoundTrip puts every kind of reportable value into a value
// arena — those with a wire form, those without one, an empty non-nil
// []string (whose wire form decodes as nil), repeats, and values larger
// than a block — and reads each back exactly, type included.
func TestValueArenaRoundTrip(t *testing.T) {
	type opaque struct{ n int }
	big := make([]string, 3000)
	for i := range big {
		big[i] = fmt.Sprintf("name-%05d", i)
	}
	values := []dtype.Value{
		nil, "ok", "ok", "", "a longer string", int64(-7), int64(math.MaxInt64), 42, true, false,
		[]string{"x", "y"}, []string(nil), []string{}, opaque{3}, big, "ok", big, int64(1),
	}
	var a valueArena
	var refs []valRef
	for i := 0; i < 40; i++ { // past several blocks
		for _, v := range values {
			refs = append(refs, a.put(v))
		}
	}
	for i, ref := range refs {
		want := values[i%len(values)]
		if got := a.get(ref); !reflect.DeepEqual(got, want) || reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Fatalf("value %d: put %T %v, got %T %v", i, want, want, got, got)
		}
	}
	if len(a.blocks) < 3 {
		t.Fatalf("%d blocks: the test never grew the arena", len(a.blocks))
	}
	if len(a.side) != 2*40 {
		t.Fatalf("side holds %d values, want the empty []string and the opaque value each time", len(a.side))
	}
}
