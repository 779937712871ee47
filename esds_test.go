package esds_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"esds"
)

func newService(t *testing.T, replicas int, dt esds.DataType) *esds.Service {
	t.Helper()
	svc, err := esds.New(esds.Config{
		Replicas:       replicas,
		DataType:       dt,
		GossipInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// TestNewValidation runs every invalid configuration through both doors of
// New: the unsharded service (Shards 0) and the sharded one (Shards 4).
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  esds.Config
	}{
		{"zero replicas", esds.Config{Replicas: 0, DataType: esds.Counter()}},
		{"65 replicas", esds.Config{Replicas: 65, DataType: esds.Counter()}},
		{"nil data type", esds.Config{Replicas: 3}},
		{"negative gossip interval", esds.Config{Replicas: 3, DataType: esds.Counter(), GossipInterval: -time.Second}},
	}
	for _, shards := range []int{0, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.name), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Shards = shards
				if svc, err := esds.New(cfg); err == nil {
					svc.Close()
					t.Fatalf("%+v accepted", cfg)
				}
			})
		}
	}
	if _, err := esds.New(esds.Config{Shards: -1, Replicas: 3, DataType: esds.Counter()}); err == nil {
		t.Error("negative shard count accepted")
	}
}

func TestCounterQuickstartFlow(t *testing.T) {
	svc := newService(t, 3, esds.Counter())
	if svc.Replicas() != 3 {
		t.Fatal("replica count wrong")
	}
	client := svc.Client("alice")
	v, id1, err := client.Apply(esds.Add(5))
	if err != nil {
		t.Fatal(err)
	}
	if v != "ok" || id1.Client != "alice" {
		t.Fatalf("apply = %v, %v", v, id1)
	}
	_, id2, _ := client.Apply(esds.Add(7))
	// The strict read is ordered after both adds via prev, so its (final,
	// never-reordered) value must be 12.
	got, _, _ := client.ApplyAfter(esds.ReadCounter(), true, id1, id2)
	if got != int64(12) {
		t.Fatalf("strict read = %v, want 12", got)
	}
	m := svc.Metrics()
	if m.ResponsesSent < 3 || m.DoItCount < 3 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestSessionReadYourWrites(t *testing.T) {
	svc := newService(t, 3, esds.Register())
	sess := svc.Client("bob").Session()
	if _, ok := sess.Last(); ok {
		t.Fatal("fresh session has a last id")
	}
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("v%d", i)
		sess.Apply(esds.Write(want))
		got, _, _ := sess.Apply(esds.Read())
		if got != want {
			t.Fatalf("read-your-write %d: %v", i, got)
		}
	}
	if _, ok := sess.Last(); !ok {
		t.Fatal("session lost its last id")
	}
}

func TestApplyAfterOrdersAcrossClients(t *testing.T) {
	svc := newService(t, 3, esds.Directory())
	alice := svc.Client("alice")
	bob := svc.Client("bob")
	_, bindID, _ := alice.Apply(esds.Bind("svc"))
	v, setID, _ := bob.ApplyAfter(esds.SetAttr("svc", "host", "h1"), false, bindID)
	if v != "ok" {
		t.Fatalf("setattr = %v", v)
	}
	// Note: strictness fixes an operation's position in the eventual order;
	// it does NOT by itself order it after previously answered operations.
	// To read what the setattr wrote, the read carries it in prev.
	got, _, _ := bob.ApplyAfter(esds.GetAttr("svc", "host"), true, setID)
	if got != "h1" {
		t.Fatalf("strict getattr = %v", got)
	}
}

func TestApplyAsync(t *testing.T) {
	svc := newService(t, 2, esds.Counter())
	client := svc.Client("c")
	ch := make(chan esds.Response, 1)
	id := client.ApplyAsync(esds.Add(1), false, nil, func(r esds.Response) { ch <- r })
	select {
	case r := <-ch:
		if r.ID != id || r.Value != "ok" || r.Err != nil {
			t.Fatalf("async response = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("async response never arrived")
	}
	// nil callback is allowed (fire and forget).
	client.ApplyAsync(esds.Add(1), false, nil, nil)
}

func TestConcurrentClientsConverge(t *testing.T) {
	svc := newService(t, 3, esds.StringSet())
	var (
		mu  sync.Mutex
		ids []esds.ID
		wg  sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := svc.Client(fmt.Sprintf("w%d", c))
			for i := 0; i < 8; i++ {
				_, id, _ := client.Apply(esds.SetAdd(fmt.Sprintf("e%d-%d", c, i)))
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	// The reader orders itself after every add via prev, so the strict size
	// must be exactly 32.
	size, _, _ := svc.Client("reader").ApplyAfter(esds.SetSize(), true, ids...)
	if size != 32 {
		t.Fatalf("strict size = %v, want 32", size)
	}
}

func TestBankWorkflow(t *testing.T) {
	svc := newService(t, 3, esds.Bank())
	teller := svc.Client("teller").Session()
	teller.Apply(esds.Deposit("acct", 100))
	v, _, _ := teller.Apply(esds.Withdraw("acct", 40))
	if v != "ok" {
		t.Fatalf("withdraw = %v", v)
	}
	v, _, _ = teller.Apply(esds.Withdraw("acct", 100))
	if v != "insufficient" {
		t.Fatalf("overdraw = %v", v)
	}
	bal, _, _ := teller.ApplyStrict(esds.Balance("acct"))
	if bal != int64(60) {
		t.Fatalf("balance = %v", bal)
	}
}

func TestLogAppendTotalOrder(t *testing.T) {
	svc := newService(t, 3, esds.Log())
	var (
		mu  sync.Mutex
		ids []esds.ID
		wg  sync.WaitGroup
	)
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := svc.Client(fmt.Sprintf("w%d", c))
			for i := 0; i < 5; i++ {
				_, id, _ := client.Apply(esds.Append(fmt.Sprintf("%d:%d", c, i)))
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	// Two strict reads ordered after all appends must agree exactly: both
	// sit after the same fixed prefix of the eventual total order.
	a, _, _ := svc.Client("r1").ApplyAfter(esds.ReadLog(), true, ids...)
	b, _, _ := svc.Client("r2").ApplyAfter(esds.ReadLog(), true, ids...)
	if a != b {
		t.Fatalf("strict reads disagree:\n%v\n%v", a, b)
	}
	n, _, _ := svc.Client("r3").ApplyAfter(esds.LogLen(), true, ids...)
	if n != 15 {
		t.Fatalf("log length = %v", n)
	}
}

func TestCloseIdempotent(t *testing.T) {
	svc, err := esds.New(esds.Config{Replicas: 2, DataType: esds.Counter()})
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close()
}

// TestCloseFailsPendingApply is the liveness acceptance regression:
// Apply/ApplyStrict must return (value or error) after Close instead of
// hanging forever, and post-Close submissions fail fast.
func TestCloseFailsPendingApply(t *testing.T) {
	svc, err := esds.New(esds.Config{
		Replicas:       3,
		DataType:       esds.Counter(),
		GossipInterval: time.Hour, // strict ops cannot stabilize: guaranteed pending
	})
	if err != nil {
		t.Fatal(err)
	}
	client := svc.Client("c")
	blocked := make(chan error, 1)
	go func() {
		_, _, err := client.ApplyStrict(esds.Add(1))
		blocked <- err
	}()
	// Async path: callback must fire with Err on Close.
	asyncResp := make(chan esds.Response, 1)
	client.ApplyAsync(esds.Add(2), true, nil, func(r esds.Response) { asyncResp <- r })

	time.Sleep(50 * time.Millisecond) // let both ops reach pending state
	svc.Close()

	select {
	case err := <-blocked:
		if !errors.Is(err, esds.ErrClosed) {
			t.Fatalf("blocked ApplyStrict returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ApplyStrict still blocked after Close")
	}
	select {
	case r := <-asyncResp:
		if !errors.Is(r.Err, esds.ErrClosed) {
			t.Fatalf("async response = %+v, want Err=ErrClosed", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("async callback never fired after Close")
	}

	// After Close, every client — pre-existing or fresh — fails immediately.
	if _, _, err := client.Apply(esds.Add(1)); !errors.Is(err, esds.ErrClosed) {
		t.Fatalf("post-close Apply returned %v, want ErrClosed", err)
	}
	if _, _, err := svc.Client("late").Apply(esds.Add(1)); !errors.Is(err, esds.ErrClosed) {
		t.Fatalf("late client Apply returned %v, want ErrClosed", err)
	}
}

// TestSessionStopsChainingOnError: a failed operation must not become the
// session's causal predecessor.
func TestSessionStopsChainingOnError(t *testing.T) {
	svc, err := esds.New(esds.Config{Replicas: 2, DataType: esds.Counter()})
	if err != nil {
		t.Fatal(err)
	}
	sess := svc.Client("s").Session()
	if _, _, err := sess.Apply(esds.Add(1)); err != nil {
		t.Fatal(err)
	}
	okID, ok := sess.Last()
	if !ok {
		t.Fatal("session lost its last id")
	}
	svc.Close()
	if _, _, err := sess.Apply(esds.Add(1)); !errors.Is(err, esds.ErrClosed) {
		t.Fatalf("post-close session Apply returned %v", err)
	}
	if last, _ := sess.Last(); last != okID {
		t.Fatalf("failed op advanced the session chain: %v -> %v", okID, last)
	}
}
