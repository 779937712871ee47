package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/ring"
	"esds/internal/sim"
	"esds/internal/transport"
)

// batchOptions is the batched-hot-path configuration the tests exercise:
// the production defaults plus batching (DESIGN.md §8).
func batchOptions() Options {
	opt := DefaultOptions()
	opt.BatchSize = 8
	opt.BatchDelay = time.Millisecond
	return opt
}

// TestBatchRequestPartialRefusal sends one BatchRequestMsg mixing
// operations a frozen replica must refuse (their object is moving in a
// live resize) with operations it must serve: the refused element gets its
// Redirect, and — the partial-batch fault property — its siblings in the
// same frame are answered normally.
func TestBatchRequestPartialRefusal(t *testing.T) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	opt := Options{Memoize: true, BatchSize: 8}
	cluster := NewCluster(ClusterConfig{
		Replicas: 2,
		DataType: dtype.NewKeyed(dtype.Counter{}),
		Network:  net,
		Options:  opt,
	})
	cluster.StartSimGossip(s, 2*sim.Millisecond)
	defer cluster.Close()

	// Freeze replica 0 for a 1→2 growth: keys the 2-ring assigns to shard 1
	// are moving away and must be refused.
	net.Register("ctl:test", func(transport.Message) {})
	net.Send("ctl:test", ReplicaNode(0), FreezeKeysMsg{
		Epoch: 1, OldShards: 1, NewShards: 2, Nonce: 1, ReplyTo: "ctl:test",
	})
	s.RunFor(10 * sim.Millisecond)

	oldRing, newRing := ring.New(1), ring.New(2)
	var moving, staying string
	for i := 0; moving == "" || staying == ""; i++ {
		key := fmt.Sprintf("key-%02d", i)
		if ring.Moves(oldRing, newRing, key) {
			if moving == "" {
				moving = key
			}
		} else if staying == "" {
			staying = key
		}
	}

	// Collect whatever comes back for client "probe" — single responses or
	// batched ones; a batch is the sequence of its elements.
	responses := make(map[ops.ID]ResponseMsg)
	net.Register(FrontEndNode("probe"), func(m transport.Message) {
		switch p := m.Payload.(type) {
		case ResponseMsg:
			responses[p.ID] = p
		case BatchResponseMsg:
			for _, resp := range p.Resps {
				responses[resp.ID] = resp
			}
		}
	})

	mkOp := func(seq uint64, key string) ops.Operation {
		return ops.New(dtype.KeyedOp{Key: key, Op: dtype.CtrAdd{N: 1}},
			ops.ID{Client: "probe", Seq: seq}, nil, false)
	}
	batch := BatchRequestMsg{Ops: []ops.Operation{
		mkOp(0, staying),
		mkOp(1, moving), // must be refused, not served — and must not poison the frame
		mkOp(2, staying),
	}}
	net.Send(FrontEndNode("probe"), ReplicaNode(0), batch)
	s.RunFor(200 * sim.Millisecond)

	for _, seq := range []uint64{0, 2} {
		resp, ok := responses[ops.ID{Client: "probe", Seq: seq}]
		if !ok || resp.Redirect != nil {
			t.Fatalf("staying-key op %d: got %+v, want a served response", seq, resp)
		}
		if resp.Value != "ok" {
			t.Fatalf("staying-key op %d answered %v", seq, resp.Value)
		}
	}
	refused, ok := responses[ops.ID{Client: "probe", Seq: 1}]
	if !ok || refused.Redirect == nil {
		t.Fatalf("moving-key op: got %+v, want a Redirect refusal", refused)
	}
	if refused.Redirect.Final {
		t.Fatalf("moving-key op refused Final while migration in progress: %+v", refused.Redirect)
	}
	if m := cluster.Replica(0).Metrics(); m.RequestBatchesReceived != 1 || m.RequestsReceived != 3 {
		t.Fatalf("batch accounting: %d batches / %d requests, want 1 / 3",
			m.RequestBatchesReceived, m.RequestsReceived)
	}
}

// TestBatchGossipCorruptElementDoesNotPoisonFrame delivers a multi-element
// gossip frame (the form older builds send) whose first element is hostile
// (it tries to lower a solid operation's label — a Lemma 10.2 violation the
// replica must fault and refuse) and whose second element claims a bogus
// sender: the third, valid element must still be applied in full.
func TestBatchGossipCorruptElementDoesNotPoisonFrame(t *testing.T) {
	s := sim.New(2)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := NewCluster(ClusterConfig{
		Replicas: 2,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  Options{Memoize: true, BatchSize: 8},
	})
	cluster.StartSimGossip(s, 2*sim.Millisecond)
	defer cluster.Close()

	fe := cluster.FrontEnd("c")
	var solid ops.Operation
	solid = fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	fe.Flush()
	s.RunFor(100 * sim.Millisecond)
	r0 := cluster.Replica(0)
	snap := r0.Snapshot()
	if snap.Memoized == 0 {
		t.Fatalf("setup: nothing memoized (done=%d)", len(snap.Done))
	}
	solidLabel := snap.Labels[solid.ID]

	newID := ops.ID{Client: "peer", Seq: 0}
	newOp := ops.New(dtype.CtrAdd{N: 7}, newID, nil, false)
	batch := BatchGossipMsg{From: 1, Msgs: []GossipMsg{
		// Hostile: lower the solid label below its final value.
		{From: 1, L: map[ops.ID]label.Label{solid.ID: label.Make(0, 0)}},
		// Malformed: sender contradicts the frame's (the frame-level
		// consistency check drops it; an out-of-range From would also be
		// caught per element).
		{From: 99, D: []ops.ID{newID}},
		// Valid: a fresh operation done at the peer.
		{From: 1, R: []ops.Operation{newOp}, D: []ops.ID{newID},
			L: map[ops.ID]label.Label{newID: label.Make(solidLabel.Seq+10, 1)}},
	}}
	net.Register("peer:fake", func(transport.Message) {})
	net.Send("peer:fake", ReplicaNode(0), batch)
	s.RunFor(50 * sim.Millisecond)

	if faults := r0.Faults(); len(faults) == 0 {
		t.Fatal("hostile element recorded no fault")
	}
	after := r0.Snapshot()
	if got := after.Labels[solid.ID]; got != solidLabel {
		t.Fatalf("solid label changed %v → %v", solidLabel, got)
	}
	found := false
	for _, id := range after.Done {
		if id == newID {
			found = true
		}
	}
	if !found {
		t.Fatalf("valid element after corrupt ones was not applied; done=%v", after.Done)
	}
	if m := r0.Metrics(); m.GossipBatchesReceived == 0 {
		t.Fatal("no gossip batch was counted")
	}
}

// TestBatchedConvergenceLive runs a pipelined workload on the live
// transport with the full batched hot path enabled and checks the
// acceptance obligations: every operation answered, the strict read-back
// equals the serial count, CheckConvergence holds at quiescence, no
// faults — and the batch machinery actually engaged on the request and
// response legs, while gossip kept to one delta frame per peer per tick.
func TestBatchedConvergenceLive(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  batchOptions(),
	})
	defer cluster.Close()
	cluster.StartLiveGossip(time.Millisecond)
	cluster.StartLiveRetransmit(50 * time.Millisecond)
	cluster.StartLiveBatchFlush(time.Millisecond)

	const clients, perClient = 3, 60
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids []ops.ID
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fe := cluster.FrontEnd(fmt.Sprintf("c%d", c))
			var inner sync.WaitGroup
			for i := 0; i < perClient; i++ {
				inner.Add(1)
				x := fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(r Response) {
					if r.Err != nil {
						t.Errorf("op failed: %v", r.Err)
					}
					inner.Done()
				})
				mu.Lock()
				ids = append(ids, x.ID)
				mu.Unlock()
			}
			inner.Wait()
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	_, v, err := cluster.FrontEnd("reader").SubmitWait(dtype.CtrRead{}, ids, true)
	if err != nil {
		t.Fatalf("strict read-back: %v", err)
	}
	if v != int64(clients*perClient) {
		t.Fatalf("strict read-back = %v, want %d", v, clients*perClient)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		conv := cluster.CheckConvergence()
		if conv.Converged {
			if len(conv.Order) != clients*perClient+1 {
				t.Fatalf("converged order has %d ops, want %d", len(conv.Order), clients*perClient+1)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: %s", conv.Reason)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if faults := cluster.Faults(); len(faults) != 0 {
		t.Fatalf("faults under batching: %v", faults)
	}
	m := cluster.TotalMetrics()
	if m.RequestBatchesReceived == 0 {
		t.Fatal("no request batches received — batching never engaged")
	}
	if m.ResponseBatchesSent == 0 {
		t.Fatal("no response batches sent")
	}
	if m.GossipBatchesReceived != 0 {
		t.Fatalf("%d multi-element gossip frames: gossip sends one delta per peer per tick", m.GossipBatchesReceived)
	}
}

// TestBatchedSnapshotRecoveryLive crashes a replica mid-workload with the
// batched hot path on (plus pruning and snapshots) and demands the §9.3
// handshake — snapshot install included — still complete: recovery
// finishes, a strict read sees the full history, the cluster converges,
// and no faults were recorded. This is the snapshot-install obligation of
// DESIGN.md §5 exercised THROUGH the batched wire path.
func TestBatchedSnapshotRecoveryLive(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	stores := []StableStore{NewMemStableStore(), NewMemStableStore(), NewMemStableStore()}
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  batchOptions(),
		Stores:   stores,
	})
	defer cluster.Close()
	cluster.StartLiveGossip(time.Millisecond)
	cluster.StartLiveRetransmit(20 * time.Millisecond)
	cluster.StartLiveBatchFlush(time.Millisecond)

	fe := cluster.FrontEnd("c")
	var ids []ops.ID
	submit := func(n int) {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			x := fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(r Response) {
				if r.Err != nil {
					t.Errorf("op failed: %v", r.Err)
				}
				wg.Done()
			})
			ids = append(ids, x.ID)
		}
		fe.Flush()
		wg.Wait()
	}
	submit(40)

	// Let pruning take hold before the crash, so recovery NEEDS the
	// snapshot path (descriptors of memoized-stable ops are gone).
	deadline := time.Now().Add(5 * time.Second)
	for cluster.Replica(2).Metrics().MemoizedOps < 40 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	victim := cluster.Replica(1)
	victim.Crash()
	submit(20)
	victim.Recover()
	deadline = time.Now().Add(10 * time.Second)
	for victim.Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("recovery never completed under batching")
		}
		victim.RetryRecovery()
		time.Sleep(5 * time.Millisecond)
	}
	if victim.Metrics().SnapshotsInstalled == 0 {
		t.Fatal("recovery completed without installing a snapshot")
	}
	submit(10)

	_, v, err := fe.SubmitWait(dtype.CtrRead{}, ids, true)
	if err != nil {
		t.Fatalf("strict read-back: %v", err)
	}
	if v != int64(70) {
		t.Fatalf("strict read-back = %v, want 70", v)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		conv := cluster.CheckConvergence()
		if conv.Converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence after recovery: %s", conv.Reason)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if faults := cluster.Faults(); len(faults) != 0 {
		t.Fatalf("faults under batched recovery: %v", faults)
	}
}

// TestResizeWithBatching grows a live keyspace with the batched hot path
// enabled on every shard: the resize-equivalence obligation (strict
// read-back of every object equals the serial count of its adds) must hold
// unchanged — batching is semantically transparent, so migration, replay,
// and redirect handling acquire no new cases.
func TestResizeWithBatching(t *testing.T) {
	net := transport.NewLiveNet()
	ks := NewKeyspace(KeyspaceConfig{
		Shards:   2,
		Replicas: 2,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  batchOptions(),
	})
	ks.StartLiveGossip(2 * time.Millisecond)
	ks.StartLiveRetransmit(20 * time.Millisecond)
	ks.StartLiveBatchFlush(time.Millisecond)
	t.Cleanup(func() {
		ks.Close()
		net.Close()
	})

	client := ks.Client("alice")
	const objects = 24
	want := make(map[string]int64)
	last := make(map[string]ops.ID)
	add := func(rounds int) {
		for i := 0; i < objects; i++ {
			obj := fmt.Sprintf("obj-%02d", i)
			for j := 0; j < rounds; j++ {
				x, _, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false)
				if err != nil {
					t.Fatalf("add %s: %v", obj, err)
				}
				last[obj] = x.ID
				want[obj]++
			}
		}
	}
	add(2)
	rep, err := ks.Resize(3)
	if err != nil {
		t.Fatalf("Resize under batching: %v", err)
	}
	if rep.NewShards != 3 || ks.Epoch() != 1 {
		t.Fatalf("resize report %+v epoch %d", rep, ks.Epoch())
	}
	add(1)

	// One pipelined round on the grown keyspace: every object's add in
	// flight at once, so front-end buffers fill and replicas answer in
	// batches.
	burst := make(map[string]ops.ID)
	var wg sync.WaitGroup
	for obj := range want {
		wg.Add(1)
		x := client.Submit(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false, func(r Response) {
			if r.Err != nil {
				t.Errorf("pipelined add: %v", r.Err)
			}
			wg.Done()
		})
		burst[obj] = x.ID
		want[obj]++
	}
	wg.Wait()

	for obj, n := range want {
		_, v, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), []ops.ID{last[obj], burst[obj]}, true)
		if err != nil {
			t.Fatalf("strict read %s: %v", obj, err)
		}
		if v != n {
			t.Fatalf("object %s = %v, want %d", obj, v, n)
		}
	}
	for _, err := range ks.Faults() {
		t.Fatalf("replica fault: %v", err)
	}
	if m := ks.TotalMetrics(); m.RequestBatchesReceived == 0 || m.ResponseBatchesSent == 0 {
		t.Fatalf("the pipelined round never batched: %d request batches received, %d response batches sent",
			m.RequestBatchesReceived, m.ResponseBatchesSent)
	}
}

// TestBatchedFullGossipStillStabilizes pins a regression the multi-process
// drive once caught: with IncrementalGossip OFF (the esds-server default
// over TCP) and BatchDelay > 0, gossip that waits on the batching knobs can
// be held forever, so strict operations never stabilize. Gossip must leave
// on its own tick whatever the batching knobs say: a strict causal read has
// to complete promptly.
func TestBatchedFullGossipStillStabilizes(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  Options{Memoize: true, BatchSize: 32, BatchDelay: 5 * time.Millisecond},
	})
	defer cluster.Close()
	cluster.StartLiveGossip(time.Millisecond)
	cluster.StartLiveRetransmit(50 * time.Millisecond)
	cluster.StartLiveBatchFlush(time.Millisecond)

	fe := cluster.FrontEnd("c")
	done := make(chan Response, 1)
	add := fe.Submit(dtype.CtrAdd{N: 5}, nil, false, nil)
	fe.Submit(dtype.CtrRead{}, []ops.ID{add.ID}, true, func(r Response) { done <- r })
	fe.Flush()
	select {
	case r := <-done:
		if r.Err != nil || r.Value != int64(5) {
			t.Fatalf("strict read = (%v, %v), want 5", r.Value, r.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("strict read never stabilized: full gossip is being held back")
	}
}

// TestGossipOneFramePerPeerPerTick pins the gossip send path under the
// batched hot path: the gossip interval is the gossip batch, so every tick
// with a non-empty delta sends each peer exactly one frame — nothing is
// held back for a later tick — and a tick with nothing new sends nothing.
// Ticks are driven by hand on the simulator, one replica at a time.
func TestGossipOneFramePerPeerPerTick(t *testing.T) {
	s := sim.New(3)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	opt := DefaultOptions()
	opt.BatchSize = 32
	opt.BatchDelay = time.Millisecond
	const n = 3
	cluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Counter{}, Network: net, Options: opt})
	defer cluster.Close()
	fe := cluster.FrontEnd("c")

	busyTicks := 0
	tick := func(r *Replica) {
		r.mu.Lock()
		busy := !r.deltaEmpty((int(r.id) + 1) % n) // deltas are enqueued for every peer at once
		r.mu.Unlock()
		frames, sent := net.Stats().Sent, r.Metrics().GossipSent
		r.SendGossip()
		frames, sent = net.Stats().Sent-frames, r.Metrics().GossipSent-sent
		want := uint64(0)
		if busy {
			want = n - 1
			busyTicks++
		}
		if frames != want || sent != want {
			t.Fatalf("replica %d tick (delta pending: %v): %d frames, GossipSent +%d; want %d of each",
				r.id, busy, frames, sent, want)
		}
	}
	for round := 0; round < 5; round++ {
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
		fe.Flush()
		s.RunFor(10 * sim.Millisecond) // admitted, labeled and answered; no gossip yet
		for pass := 0; pass < 4; pass++ {
			for i := 0; i < n; i++ {
				tick(cluster.Replica(i))
			}
			s.RunFor(10 * sim.Millisecond)
		}
	}
	if busyTicks < 10 {
		t.Fatalf("only %d ticks had a delta to send", busyTicks)
	}
	if conv := cluster.CheckConvergence(); !conv.Converged {
		t.Fatalf("no convergence: %s", conv.Reason)
	}
}

// TestLiveNetKeyspaceSendsNoCompactGossip pins that an in-process transport
// has no wire to negotiate over, so a batched LiveNet keyspace on the shard runtime — wired the way
// esds.New wires one, which never calls RegisterWire — must never touch
// the compact codec: no compact frame sent, and no encode attempted and
// abandoned for the plain form.
func TestLiveNetKeyspaceSendsNoCompactGossip(t *testing.T) {
	net := transport.NewLiveNet()
	rt := NewShardRuntime(0)
	ks := NewKeyspace(KeyspaceConfig{
		Shards:   2,
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  batchOptions(),
		Runtime:  rt,
	})
	ks.StartLiveGossip(2 * time.Millisecond)
	ks.StartLiveRetransmit(50 * time.Millisecond)
	ks.StartLiveBatchFlush(time.Millisecond)
	defer func() {
		ks.Close()
		net.Close()
		rt.Close()
	}()

	const adds = 200
	client := ks.Client("c")
	var wg sync.WaitGroup
	for i := 0; i < adds; i++ {
		wg.Add(1)
		client.Submit(ks.WrapOp(fmt.Sprintf("obj-%02d", i%16), dtype.CtrAdd{N: 1}), nil, false, func(r Response) {
			if r.Err != nil {
				t.Errorf("add: %v", r.Err)
			}
			wg.Done()
		})
	}
	wg.Wait()
	// Stability at all three replicas of each shard takes gossip rounds.
	deadline := time.Now().Add(10 * time.Second)
	for ks.TotalMetrics().StableOps < 3*adds {
		if time.Now().After(deadline) {
			t.Fatalf("never stabilized: %+v", ks.TotalMetrics())
		}
		time.Sleep(2 * time.Millisecond)
	}
	m := ks.TotalMetrics()
	if m.GossipSent == 0 {
		t.Fatal("no gossip sent")
	}
	if m.CompactGossipSent != 0 || m.CompactGossipFallbacks != 0 {
		t.Fatalf("in-process gossip touched the compact codec: %d compact frames, %d fallbacks",
			m.CompactGossipSent, m.CompactGossipFallbacks)
	}
}
