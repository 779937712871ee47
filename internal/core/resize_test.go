package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/ring"
	"esds/internal/sim"
	"esds/internal/transport"
)

// newResizeKeyspace builds an all-local live keyspace with fast tickers.
func newResizeKeyspace(t *testing.T, shards, replicas int, opt Options) (*Keyspace, *transport.LiveNet) {
	t.Helper()
	net := transport.NewLiveNet()
	ks := NewKeyspace(KeyspaceConfig{
		Shards:   shards,
		Replicas: replicas,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  opt,
	})
	ks.StartLiveGossip(2 * time.Millisecond)
	ks.StartLiveRetransmit(20 * time.Millisecond)
	t.Cleanup(func() {
		ks.Close()
		net.Close()
	})
	return ks, net
}

// TestResizeQuiescent migrates a populated keyspace with no concurrent
// traffic: every object's value must survive the move, exactly the
// ring-diff keys must move, and the epoch must advance.
func TestResizeQuiescent(t *testing.T) {
	ks, _ := newResizeKeyspace(t, 2, 3, DefaultOptions())
	client := ks.Client("alice")
	const objects = 40
	want := make(map[string]int64)
	last := make(map[string]ops.ID) // per-object causal frontier for read-back
	for i := 0; i < objects; i++ {
		obj := fmt.Sprintf("obj-%02d", i)
		n := int64(i%5 + 1)
		for j := int64(0); j < n; j++ {
			x, _, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false)
			if err != nil {
				t.Fatalf("seeding %s: %v", obj, err)
			}
			last[obj] = x.ID
		}
		want[obj] = n
	}

	oldRing, newRing := ring.New(2), ring.New(3)
	wantMoved := 0
	for obj := range want {
		if ring.Moves(oldRing, newRing, obj) {
			wantMoved++
		}
	}

	rep, err := ks.Resize(3)
	if err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if rep.OldShards != 2 || rep.NewShards != 3 || rep.Epoch != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.KeysMoved != wantMoved || rep.Installs != wantMoved {
		t.Fatalf("moved %d keys (%d installs), ring diff says %d", rep.KeysMoved, rep.Installs, wantMoved)
	}
	if ks.Epoch() != 1 || ks.NumShards() != 3 {
		t.Fatalf("epoch/shards = %d/%d after resize", ks.Epoch(), ks.NumShards())
	}

	for obj, n := range want {
		_, v, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), []ops.ID{last[obj]}, true)
		if err != nil {
			t.Fatalf("strict read %s: %v", obj, err)
		}
		if v != n {
			t.Fatalf("object %s = %v after resize, want %d (owner %d→%d)",
				obj, v, n, oldRing.ShardOf(obj), newRing.ShardOf(obj))
		}
	}
	for _, err := range ks.Faults() {
		t.Fatalf("replica fault after resize: %v", err)
	}
	mm := ks.MigrationMetrics()
	if mm.Resizes != 1 || mm.KeysMigrated != wantMoved {
		t.Fatalf("migration metrics = %+v", mm)
	}
}

// TestResizeUnderLoad is the acceptance scenario: a live keyspace resized
// 4→8 under concurrent mixed strict/non-strict traffic loses no
// operations, and the strict read-back of every object agrees with the
// serial spec (each counter equals exactly the adds submitted to it).
func TestResizeUnderLoad(t *testing.T) {
	ks, _ := newResizeKeyspace(t, 4, 3, DefaultOptions())
	const (
		workers      = 6
		objects      = 48
		opsPerWorker = 120
	)
	objNames := make([]string, objects)
	for i := range objNames {
		objNames[i] = fmt.Sprintf("load-%03d", i)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		adds     = make(map[string]int64)    // object → adds acknowledged
		wrote    = make(map[string][]ops.ID) // object → acknowledged write ids
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			client := ks.Client(fmt.Sprintf("w%d", w))
			for i := 0; i < opsPerWorker; i++ {
				obj := objNames[rng.Intn(len(objNames))]
				if rng.Intn(5) == 0 {
					// Strict read mixed into the write load.
					if _, _, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), nil, true); err != nil {
						fail(fmt.Errorf("worker %d strict read %s: %w", w, obj, err))
						return
					}
					continue
				}
				x, _, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, false)
				if err != nil {
					fail(fmt.Errorf("worker %d add %s: %w", w, obj, err))
					return
				}
				mu.Lock()
				adds[obj]++
				wrote[obj] = append(wrote[obj], x.ID)
				mu.Unlock()
			}
		}(w)
	}

	// Resize mid-load: wait for some traffic, then grow 4→8 while the
	// workers keep submitting.
	time.Sleep(30 * time.Millisecond)
	rep, err := ks.Resize(8)
	if err != nil {
		t.Fatalf("Resize under load: %v", err)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// Ring sanity on the actual key population: growth 4→8 should move
	// about half the touched objects ((8−4)/8), and the migration must
	// have moved every touched object the ring diff names.
	oldRing, newRing := ring.New(4), ring.New(8)
	movedTouched := 0
	for _, obj := range objNames {
		if ring.Moves(oldRing, newRing, obj) {
			movedTouched++
		}
	}
	if movedTouched < objects/4 || movedTouched > objects*3/4 {
		t.Fatalf("ring moved %d of %d objects on 4→8, want ≈ half", movedTouched, objects)
	}
	if rep.KeysMoved < movedTouched/2 || rep.KeysMoved > movedTouched {
		// Objects with no traffic by resize time may legitimately move
		// without an install, but most were touched in the warm-up; no key
		// the ring diff does not name may move.
		t.Fatalf("resize migrated %d keys, ring diff names %d touched objects", rep.KeysMoved, movedTouched)
	}

	// Serial-spec read-back: every object's strict read equals exactly the
	// adds acknowledged for it. A lost, duplicated, or reordered migration
	// would break the count.
	reader := ks.Client("reader")
	total, wantTotal := int64(0), int64(0)
	for _, obj := range objNames {
		_, v, err := reader.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), wrote[obj], true)
		if err != nil {
			t.Fatalf("strict read-back %s: %v", obj, err)
		}
		got, ok := v.(int64)
		if !ok {
			t.Fatalf("strict read-back %s returned %T (%v)", obj, v, v)
		}
		total += got
		wantTotal += adds[obj]
		if got != adds[obj] {
			t.Errorf("object %s = %d, serial spec says %d (owner %d→%d)",
				obj, got, adds[obj], oldRing.ShardOf(obj), newRing.ShardOf(obj))
		}
	}
	if total != wantTotal {
		t.Fatalf("read back %d total increments, workers got acks for %d", total, wantTotal)
	}
	for _, err := range ks.Faults() {
		t.Fatalf("replica fault under resize load: %v", err)
	}
}

// TestResizeStaleRouter drives traffic through a SECOND, client-only
// keyspace view that never hears about the resize directly — the
// multi-process shape, where a front-end process must learn the new
// topology purely from Redirect replies and replay refused operations at
// the destination exactly once.
func TestResizeStaleRouter(t *testing.T) {
	net := transport.NewLiveNet()
	serverKS := NewKeyspace(KeyspaceConfig{
		Shards: 2, Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: DefaultOptions(),
	})
	serverKS.StartLiveGossip(2 * time.Millisecond)
	serverKS.StartLiveRetransmit(20 * time.Millisecond)
	clientKS := NewKeyspace(KeyspaceConfig{
		Shards: 2, Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: DefaultOptions(),
		LocalReplicas: []int{}, // front-end only: replicas live in serverKS
	})
	clientKS.StartLiveRetransmit(10 * time.Millisecond)
	defer func() {
		clientKS.Close()
		serverKS.Close()
		net.Close()
	}()

	stale := clientKS.Client("stale")
	const objects = 24
	last := make(map[string]ops.ID)
	for i := 0; i < objects; i++ {
		obj := fmt.Sprintf("rk-%02d", i)
		x, _, err := stale.SubmitWait(clientKS.WrapOp(obj, dtype.CtrAdd{N: 2}), nil, false)
		if err != nil {
			t.Fatalf("pre-resize add %s: %v", obj, err)
		}
		last[obj] = x.ID
	}

	if _, err := serverKS.Resize(3); err != nil {
		t.Fatalf("Resize: %v", err)
	}

	// The stale router still routes by the 2-shard ring; moved objects get
	// redirect dances and must land on the new shard with prior state
	// intact.
	moved := 0
	for i := 0; i < objects; i++ {
		obj := fmt.Sprintf("rk-%02d", i)
		if ring.Moves(ring.New(2), ring.New(3), obj) {
			moved++
		}
		x, _, err := stale.SubmitWait(clientKS.WrapOp(obj, dtype.CtrAdd{N: 1}), []ops.ID{last[obj]}, false)
		if err != nil {
			t.Fatalf("post-resize add %s: %v", obj, err)
		}
		_, v, err := stale.SubmitWait(clientKS.WrapOp(obj, dtype.CtrRead{}), []ops.ID{x.ID}, true)
		if err != nil {
			t.Fatalf("post-resize strict read %s: %v", obj, err)
		}
		if v != int64(3) {
			t.Fatalf("object %s = %v after stale-router resize, want 3", obj, v)
		}
	}
	if moved == 0 {
		t.Fatal("test population has no moving keys — ring diff broken?")
	}
	// The stale view must have learned the new topology from redirects.
	if clientKS.Epoch() != 1 {
		t.Fatalf("stale router epoch = %d, want 1 (learned from redirects)", clientKS.Epoch())
	}
	if got := clientKS.NumShards(); got != 3 {
		t.Fatalf("stale router shards = %d, want 3", got)
	}
	if mm := clientKS.MigrationMetrics(); mm.OpsReplayed == 0 {
		t.Fatal("stale router never replayed an operation — redirects unused?")
	}
}

// TestResizeSessionChain pins prev-constraint translation across a
// migration: a causal chain on one object must stay intact when the
// object moves mid-chain.
func TestResizeSessionChain(t *testing.T) {
	ks, _ := newResizeKeyspace(t, 2, 3, DefaultOptions())
	client := ks.Client("chain")

	// Find an object that moves 2→3.
	obj := ""
	for i := 0; ; i++ {
		cand := fmt.Sprintf("chain-%d", i)
		if ring.Moves(ring.New(2), ring.New(3), cand) {
			obj = cand
			break
		}
	}
	x1, _, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 10}), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Resize(3); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	// Chain across the move: the prev references point at source-era ops
	// and must be translated to the object's install (which subsumes them).
	x2, _, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrDouble{}), []ops.ID{x1.ID}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, v, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), []ops.ID{x2.ID}, true)
	if err != nil {
		t.Fatal(err)
	}
	if v != int64(20) {
		t.Fatalf("chained read = %v, want 20", v)
	}
}

// TestResizeValidation pins the driver's refusals.
func TestResizeValidation(t *testing.T) {
	ks, _ := newResizeKeyspace(t, 2, 2, DefaultOptions())
	if _, err := ks.Resize(2); err == nil {
		t.Error("resize to equal shard count must fail")
	}
	if _, err := ks.Resize(1); err == nil {
		t.Error("shrink must fail")
	}

	noMemo := DefaultOptions()
	noMemo.Memoize = false
	net2 := transport.NewLiveNet()
	ks2 := NewKeyspace(KeyspaceConfig{Shards: 1, Replicas: 2, DataType: dtype.Counter{}, Network: net2, Options: noMemo})
	ks2.StartLiveGossip(2 * time.Millisecond)
	defer func() { ks2.Close(); net2.Close() }()
	if _, err := ks2.Resize(2); err == nil {
		t.Error("resize without Memoize must fail")
	}

	net3 := transport.NewLiveNet()
	ks3 := NewKeyspace(KeyspaceConfig{Shards: 1, Replicas: 2, DataType: dtype.Counter{}, Network: net3, Options: DefaultOptions()})
	defer func() { ks3.Close(); net3.Close() }()
	if _, err := ks3.Resize(2); err == nil {
		t.Error("resize without live gossip must fail")
	}
}

// TestResizeCrashMidMigration crashes (and recovers) a source replica
// while the resize is running: the resize must still complete and no
// acknowledged operation may be lost. The §9.3 handshake re-teaches the
// recovered replica its freeze obligations before it serves again.
func TestResizeCrashMidMigration(t *testing.T) {
	ks, _ := newResizeKeyspace(t, 2, 3, DefaultOptions())
	client := ks.Client("cc")
	const objects = 30
	last := make(map[string]ops.ID)
	for i := 0; i < objects; i++ {
		obj := fmt.Sprintf("cm-%02d", i)
		// Strict seeds: stable everywhere before the response, so the crash
		// below cannot lose an answered non-strict op (this store-less
		// cluster has no journal to replay it from; DESIGN.md §10) — this
		// test targets migration.
		x, _, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrAdd{N: 1}), nil, true)
		if err != nil {
			t.Fatalf("seed %s: %v", obj, err)
		}
		last[obj] = x.ID
	}

	// Crash replica 1 of shard 0 just as the resize starts, recover it
	// shortly after: the freeze fixed point must wait it out (it acks only
	// once recovered) and the drain completes after its state heals.
	victim := ks.Shard(0).Replica(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(5 * time.Millisecond)
		victim.Crash()
		time.Sleep(20 * time.Millisecond)
		victim.Recover()
		for i := 0; i < 200 && victim.Recovering(); i++ {
			time.Sleep(2 * time.Millisecond)
			victim.RetryRecovery()
		}
	}()

	rep, err := ks.Resize(3)
	<-done
	if err != nil {
		t.Fatalf("Resize with mid-migration crash: %v", err)
	}
	if victim.Recovering() {
		t.Fatal("victim never finished recovering")
	}
	_ = rep
	for i := 0; i < objects; i++ {
		obj := fmt.Sprintf("cm-%02d", i)
		_, v, err := client.SubmitWait(ks.WrapOp(obj, dtype.CtrRead{}), []ops.ID{last[obj]}, true)
		if err != nil {
			t.Fatalf("read-back %s: %v", obj, err)
		}
		if v != int64(1) {
			t.Fatalf("object %s = %v after crash-migration, want 1", obj, v)
		}
	}
}

// TestSnapshotReseedsKeyIndex pins the crash-recovery half of the
// prune-surviving key index: a replica that recovers through a §9.3
// snapshot (descriptors pruned everywhere) must re-learn which object
// each seeded operation addressed — a later resize may use it as the
// exporter, and an id missing from the index would be missing from the
// KeyInstall subsume set (breaking exactly-once replay and stale prev
// translation).
func TestSnapshotReseedsKeyIndex(t *testing.T) {
	e := newTestEnv(t, 3, dtype.NewKeyed(dtype.Counter{}), Options{Memoize: true, Prune: true})
	defer e.cluster.Close()
	want := map[ops.ID]string{}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("obj-%d", i%3)
		res := e.submit("c", dtype.KeyedOp{Key: key, Op: dtype.CtrAdd{N: 1}}, nil, false)
		want[res.x.ID] = key
		e.s.RunFor(3 * sim.Millisecond)
	}
	drainUntilPruned(t, e)

	r0 := e.cluster.Replica(0)
	e.net.SetNodeDown(r0.Node(), true)
	r0.Crash()
	e.s.RunFor(30 * sim.Millisecond)
	e.net.SetNodeDown(r0.Node(), false)
	r0.Recover()
	e.s.RunFor(300 * sim.Millisecond)
	if r0.Recovering() {
		t.Fatal("recovery never completed")
	}
	if r0.Metrics().SnapshotsInstalled == 0 {
		t.Fatal("recovery did not go through the snapshot path")
	}
	r0.mu.Lock()
	defer r0.mu.Unlock()
	for id, key := range want {
		if e := r0.ids.get(id); e == nil || !e.has(recKeyed) || r0.ids.keyOf(e) != key {
			t.Errorf("recovered key index: no key %q for %v", key, id)
		}
	}
}
