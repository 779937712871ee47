package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/ring"
	"esds/internal/transport"
)

// newRuntimeKeyspace builds a live keyspace whose replicas run on a
// shard-per-core worker pool, with fast tickers. Close order matters: the
// transport stops delivering before the workers drain and exit.
func newRuntimeKeyspace(t *testing.T, shards, replicas, workers int) (*Keyspace, *ShardRuntime) {
	t.Helper()
	net := transport.NewLiveNet()
	rt := NewShardRuntime(workers)
	ks := NewKeyspace(KeyspaceConfig{
		Shards:   shards,
		Replicas: replicas,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  DefaultOptions(),
		Runtime:  rt,
	})
	ks.StartLiveGossip(2 * time.Millisecond)
	ks.StartLiveRetransmit(20 * time.Millisecond)
	t.Cleanup(func() {
		ks.Close()
		net.Close()
		rt.Close()
	})
	return ks, rt
}

// waitRuntimeConverged polls for cross-replica convergence at quiescence:
// deliveries through the worker runtime are asynchronous, so the check
// retries (with gossip nudges) until every replica of every shard agrees or
// the deadline passes.
func waitRuntimeConverged(t *testing.T, ks *Keyspace) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var conv Convergence
	for time.Now().Before(deadline) {
		ks.GossipAll()
		time.Sleep(5 * time.Millisecond)
		if conv = ks.CheckConvergence(); conv.Converged {
			return
		}
	}
	t.Fatalf("keyspace never converged: %s", conv.Reason)
}

// TestRuntimeWorkerOwnershipStress is the worker-ownership invariant test:
// a 4-shard keyspace on a 4-worker pool at GOMAXPROCS=4 (so workers really
// preempt each other; run under -race), driven by concurrent clients mixing
// non-strict increments with prev-constrained strict reads, with one
// replica crashing and recovering mid-run. Every submission must be
// answered, the strict read-backs must match the serial spec exactly, no
// replica may record a fault, and the keyspace must converge — any
// cross-worker access to a replica's state would be flagged by the race
// detector, and any ownership mixup would break the counts.
func TestRuntimeWorkerOwnershipStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	ks, rt := newRuntimeKeyspace(t, 4, 3, 4)
	if rt.Workers() != 4 {
		t.Fatalf("pool has %d workers, want 4", rt.Workers())
	}

	const (
		clients      = 6
		objsPerOwner = 4
		opsPerClient = 120
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// Each client owns a disjoint object set, so final per-object counts are
	// exact; every 10th op is a strict read constrained after the client's
	// own writes so far (exercises waits-for parking through the router).
	//
	// The crash is staged: clients pause at the half-way barrier, the
	// keyspace quiesces for a few gossip rounds so every ACKED operation is
	// replicated (this cluster runs store-less, so a non-strict op answered
	// and lost in the crash window has no journal to come back from —
	// DESIGN.md §10 — not a runtime bug; its id in a later prev set
	// would park that read forever), then the victim crashes, traffic
	// resumes AROUND the dead replica, and recovery races the live load.
	var (
		halfway sync.WaitGroup
		resume  = make(chan struct{})
	)
	halfway.Add(clients)
	adds := make([]map[string]int64, clients)
	lasts := make([]map[string][]ops.ID, clients)
	for w := 0; w < clients; w++ {
		adds[w] = make(map[string]int64)
		lasts[w] = make(map[string][]ops.ID)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ks.Client(fmt.Sprintf("stress-%d", w))
			for i := 0; i < opsPerClient; i++ {
				if i == opsPerClient/2 {
					halfway.Done()
					<-resume
				}
				obj := fmt.Sprintf("own-%d-%d", w, i%objsPerOwner)
				if i%10 == 9 {
					_, v, err := c.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), lasts[w][obj], true)
					if err != nil {
						fail(fmt.Errorf("client %d strict read %s: %w", w, obj, err))
						return
					}
					if got := v.(int64); got < adds[w][obj] {
						fail(fmt.Errorf("client %d strict read %s = %d, below own %d acked adds", w, obj, got, adds[w][obj]))
						return
					}
					continue
				}
				x, _, err := c.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false)
				if err != nil {
					fail(fmt.Errorf("client %d add %s: %w", w, obj, err))
					return
				}
				adds[w][obj]++
				lasts[w][obj] = append(lasts[w][obj], x.ID)
			}
		}(w)
	}

	// Mid-run recovery on one replica: quiesce at the barrier (every acked
	// op replicates), crash, resume the second half of the load against the
	// dead replica (front-end retransmission routes around it), then run
	// the §9.3 handshake concurrently with the live traffic.
	halfway.Wait()
	time.Sleep(30 * time.Millisecond)
	victim := ks.Shard(0).Replica(0)
	victim.Crash()
	close(resume)
	time.Sleep(50 * time.Millisecond)
	victim.Recover()

	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Strict read-back of every object, constrained after all of its writes.
	for w := 0; w < clients; w++ {
		reader := ks.Client(fmt.Sprintf("reader-%d", w))
		for obj, want := range adds[w] {
			_, v, err := reader.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), lasts[w][obj], true)
			if err != nil {
				t.Fatalf("read-back %s: %v", obj, err)
			}
			if v != want {
				t.Fatalf("object %s = %v, want %d", obj, v, want)
			}
		}
	}
	for _, err := range ks.Faults() {
		t.Fatalf("replica fault: %v", err)
	}
	waitRuntimeConverged(t, ks)
}

// TestRuntimeCrossWorkerResizeFixedPoint proves live resharding works when
// the source and destination shards are owned by DIFFERENT workers: keys
// migrate between worker-owned automata (export on one worker, install on
// another), the keyspace reaches the resized fixed point under load, and
// the grown shard attaches to the same pool. The worker pinning is
// deterministic (ring-hash of the shard index), so the cross-worker
// precondition is asserted, not assumed.
func TestRuntimeCrossWorkerResizeFixedPoint(t *testing.T) {
	ks, rt := newRuntimeKeyspace(t, 2, 3, 4)

	const objects = 40
	client := ks.Client("writer")
	want := make(map[string]int64)
	last := make(map[string]ops.ID)
	for i := 0; i < objects; i++ {
		obj := fmt.Sprintf("rz-%02d", i)
		n := int64(i%4 + 1)
		for j := int64(0); j < n; j++ {
			x, _, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false)
			if err != nil {
				t.Fatalf("seeding %s: %v", obj, err)
			}
			last[obj] = x.ID
		}
		want[obj] = n
	}

	// The resize must move at least one key between shards pinned to
	// different workers — otherwise this test exercises nothing beyond
	// single-worker resizing.
	oldRing, newRing := ring.New(2), ring.New(3)
	crossWorker := false
	for obj := range want {
		if !ring.Moves(oldRing, newRing, obj) {
			continue
		}
		src, dst := oldRing.ShardOf(obj), newRing.ShardOf(obj)
		if rt.WorkerFor(src) != rt.WorkerFor(dst) {
			crossWorker = true
			break
		}
	}
	if !crossWorker {
		t.Fatalf("pinning left no cross-worker migration (workers %d/%d/%d for shards 0/1/2): test would prove nothing",
			rt.WorkerFor(0), rt.WorkerFor(1), rt.WorkerFor(2))
	}

	// Background load during the migration, on the writer's own objects.
	// lastLoad records each object's last acknowledged load add: ESDS lets
	// a strict read that names no such add be ordered before it, so the
	// read-back below must name it to be owed its effect.
	stop := make(chan struct{})
	var loadWG sync.WaitGroup
	extra := make(map[string]int64)
	lastLoad := make(map[string]ops.ID)
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		c := ks.Client("load")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			obj := fmt.Sprintf("rz-%02d", i%objects)
			x, _, err := c.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false)
			if err != nil {
				return // Close during teardown is fine; correctness is checked below
			}
			extra[obj]++
			lastLoad[obj] = x.ID
		}
	}()

	rep, err := ks.Resize(3)
	close(stop)
	loadWG.Wait()
	if err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if rep.KeysMoved == 0 {
		t.Fatalf("resize moved nothing: %+v", rep)
	}
	if ks.NumShards() != 3 || ks.Epoch() != 1 {
		t.Fatalf("fixed point not reached: shards=%d epoch=%d", ks.NumShards(), ks.Epoch())
	}
	// The grown shard is attached to the shared pool (deterministic pin).
	if got := rt.WorkerFor(2); got < 0 || got >= rt.Workers() {
		t.Fatalf("new shard pinned to worker %d of %d", got, rt.Workers())
	}

	reader := ks.Client("check")
	for obj, n := range want {
		prev := []ops.ID{last[obj]}
		if id, ok := lastLoad[obj]; ok {
			prev = append(prev, id)
		}
		_, v, err := reader.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), prev, true)
		if err != nil {
			t.Fatalf("strict read %s: %v", obj, err)
		}
		if v != n+extra[obj] {
			t.Fatalf("object %s = %v after cross-worker resize, want %d (owner %d→%d)",
				obj, v, n+extra[obj], oldRing.ShardOf(obj), newRing.ShardOf(obj))
		}
	}
	for _, err := range ks.Faults() {
		t.Fatalf("replica fault after resize: %v", err)
	}
	waitRuntimeConverged(t, ks)
}
