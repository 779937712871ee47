package esds_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"esds"
)

func newKeyspace(t *testing.T, shards, replicas int, dt esds.DataType) *esds.Service {
	t.Helper()
	ks, err := esds.New(esds.Config{
		Shards:         shards,
		Replicas:       replicas,
		DataType:       dt,
		GossipInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ks.Close)
	return ks
}

func TestKeyspaceValidation(t *testing.T) {
	bad := []esds.Config{
		{Shards: -1, Replicas: 3, DataType: esds.Counter()},
		{Shards: 2, Replicas: 0, DataType: esds.Counter()},
		{Shards: 2, Replicas: 3},
		{Shards: 2, Replicas: 3, DataType: esds.Counter(), GossipInterval: -time.Second},
	}
	for i, cfg := range bad {
		if svc, err := esds.New(cfg); err == nil {
			svc.Close()
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestKeyspaceObjectsAreIndependent(t *testing.T) {
	ks := newKeyspace(t, 4, 2, esds.Counter())
	// Writes to one object must not affect another, wherever the objects
	// land. Object ctr_i receives i+1 increments; every write id is kept so
	// the final strict read can be ordered after all of them (the paper's
	// client-specified-constraints idiom).
	written := make(map[string][]esds.ID)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("ctr%d", i)
		c := ks.Object(name).Client("w")
		for j := 0; j <= i; j++ {
			_, id, err := c.Apply(esds.Add(1))
			if err != nil {
				t.Fatal(err)
			}
			written[name] = append(written[name], id)
		}
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("ctr%d", i)
		v, _, err := ks.Object(name).Client("r").ApplyAfter(esds.ReadCounter(), true, written[name]...)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i+1) {
			t.Fatalf("object %s strict read = %v, want %d", name, v, i+1)
		}
	}
}

func TestKeyspaceRoutingDeterministic(t *testing.T) {
	ks := newKeyspace(t, 4, 2, esds.Counter())
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("obj-%d", i)
		s := ks.ShardOf(name)
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%q) = %d out of range", name, s)
		}
		if s != ks.Object(name).Shard() {
			t.Fatalf("Object(%q).Shard() disagrees with ShardOf", name)
		}
		if s != ks.ShardOf(name) {
			t.Fatalf("ShardOf(%q) not deterministic", name)
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("256 objects hit only %d of 4 shards", len(seen))
	}
}

func TestKeyspaceSessionReadYourWrites(t *testing.T) {
	ks := newKeyspace(t, 3, 3, esds.Register())
	sess := ks.Object("profile:42").Client("bob").Session()
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("v%d", i)
		if _, _, err := sess.Apply(esds.Write(want)); err != nil {
			t.Fatal(err)
		}
		got, _, err := sess.Apply(esds.Read())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("read-your-write %d: %v", i, got)
		}
	}
}

func TestKeyspaceAggregateMetrics(t *testing.T) {
	ks := newKeyspace(t, 4, 2, esds.Counter())
	var ops int
	for i := 0; i < 32; i++ {
		obj := ks.Object(fmt.Sprintf("m%d", i))
		if _, _, err := obj.Client("c").Apply(esds.Add(1)); err != nil {
			t.Fatal(err)
		}
		ops++
	}
	total := ks.Metrics()
	if total.RequestsReceived < uint64(ops) {
		t.Fatalf("aggregate requests = %d, want ≥ %d", total.RequestsReceived, ops)
	}
	var perShard uint64
	for s := 0; s < ks.NumShards(); s++ {
		perShard += ks.ShardMetrics(s).RequestsReceived
	}
	if perShard != total.RequestsReceived {
		t.Fatalf("shard metrics sum %d ≠ aggregate %d", perShard, total.RequestsReceived)
	}
}

// TestKeyspaceCloseFailsPendingWaiters mirrors the service-level liveness
// guarantee for the sharded API.
func TestKeyspaceCloseFailsPendingWaiters(t *testing.T) {
	ks, err := esds.New(esds.Config{
		Shards:         2,
		Replicas:       3,
		DataType:       esds.Counter(),
		GossipInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Strict ops cannot stabilize with a replica of each shard crashed.
	for shard := 0; shard < ks.NumShards(); shard++ {
		esds.CrashReplica(ks, shard, 2)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := ks.Object(fmt.Sprintf("o%d", i)).Client("c").ApplyStrict(esds.Add(1))
			errs <- err
		}(i)
	}
	time.Sleep(100 * time.Millisecond)
	ks.Close()
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("strict waiters still blocked after Service.Close")
	}
	close(errs)
	for err := range errs {
		if !errors.Is(err, esds.ErrClosed) {
			t.Fatalf("waiter returned %v, want ErrClosed", err)
		}
	}
}

func TestKeyspaceResizeLive(t *testing.T) {
	ks := newKeyspace(t, 2, 3, esds.Counter())

	// Sessions over several objects: causal chains must survive the move.
	type handle struct {
		sess *esds.Session
		name string
		n    int64
	}
	var hs []handle
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("rz%d", i)
		h := handle{sess: ks.Object(name).Client("alice").Session(), name: name, n: int64(i + 1)}
		for j := int64(0); j < h.n; j++ {
			if _, _, err := h.sess.Apply(esds.Add(1)); err != nil {
				t.Fatalf("seed %s: %v", name, err)
			}
		}
		hs = append(hs, h)
	}

	rep, err := ks.Resize(5)
	if err != nil {
		t.Fatalf("Resize: %v", err)
	}
	if rep.NewShards != 5 || ks.NumShards() != 5 || ks.Epoch() != 1 {
		t.Fatalf("resize report %+v, shards=%d epoch=%d", rep, ks.NumShards(), ks.Epoch())
	}
	if rep.KeysMoved == 0 {
		t.Fatal("2→5 moved nothing across 12 objects — suspicious")
	}

	// Continue every session across the resize: read-your-writes must hold
	// through the migration, then one more write + strict read.
	for _, h := range hs {
		if v, _, err := h.sess.Apply(esds.Add(1)); err != nil || v != "ok" {
			t.Fatalf("post-resize write %s: %v %v", h.name, v, err)
		}
		v, _, err := h.sess.ApplyStrict(esds.ReadCounter())
		if err != nil {
			t.Fatalf("post-resize strict read %s: %v", h.name, err)
		}
		if v != h.n+1 {
			t.Fatalf("object %s = %v after resize, want %d", h.name, v, h.n+1)
		}
	}
	if mm := ks.MigrationMetrics(); mm.Resizes != 1 || mm.KeysMigrated != rep.KeysMoved {
		t.Fatalf("migration metrics %+v vs report %+v", mm, rep)
	}
	if len(ks.Faults()) != 0 {
		t.Fatalf("faults after resize: %v", ks.Faults())
	}

	// A second growth must chain cleanly on the same keyspace.
	if _, err := ks.Resize(6); err != nil {
		t.Fatalf("second Resize: %v", err)
	}
	for _, h := range hs {
		v, _, err := h.sess.ApplyStrict(esds.ReadCounter())
		if err != nil || v != h.n+1 {
			t.Fatalf("object %s = %v (%v) after second resize, want %d", h.name, v, err, h.n+1)
		}
	}
}
