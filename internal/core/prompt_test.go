package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/transport"
)

// The prompt-send rule (gossip.go, DESIGN.md §8): while a replica knows at
// most one unsettled strict operation, the changes to it leave at the end
// of the locked round that made them; once strict operations overlap they
// ride the gossip interval.

// TestStrictPromptWhenRare: with a gossip interval of a second, a lone
// strict operation is answered in a few message delays, not three ticks.
func TestStrictPromptWhenRare(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  DefaultOptions(),
	})
	defer cluster.Close()
	cluster.StartLiveGossip(time.Second)
	fe := cluster.FrontEnd("c")
	for i := 1; i <= 5; i++ {
		start := time.Now()
		_, v, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, true)
		if err != nil || v != "ok" {
			t.Fatalf("strict add %d = (%v, %v)", i, v, err)
		}
		if d := time.Since(start); d >= 50*time.Millisecond {
			t.Fatalf("lone strict add %d answered in %v, want < 50ms: it waited for the gossip ticker", i, d)
		}
	}
	if m := cluster.TotalMetrics(); m.GossipPrompt == 0 {
		t.Fatalf("strict operations answered without a prompt send: %+v", m)
	}
}

// TestStrictRidesIntervalWhenCommon: with eight strict operations kept in
// flight — their prev names an operation never submitted, so they are
// received everywhere and never done — every replica knows several
// unsettled strict operations, and the strict adds of eight closed-loop
// clients ride the gossip tick.
func TestStrictRidesIntervalWhenCommon(t *testing.T) {
	net := transport.NewLiveNet()
	defer net.Close()
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  DefaultOptions(),
	})
	defer cluster.Close()
	cluster.StartLiveGossip(5 * time.Millisecond)
	const inFlight = 8
	never := []ops.ID{{Client: "never", Seq: 1}}
	for c := 0; c < inFlight; c++ {
		cluster.FrontEnd(fmt.Sprintf("blocked%d", c)).Submit(dtype.CtrAdd{N: 1}, never, true, nil)
	}
	time.Sleep(100 * time.Millisecond) // the blocked descriptors reach every replica
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		mu       sync.Mutex
		answered int
		firstErr error
	)
	m0 := cluster.TotalMetrics()
	for c := 0; c < inFlight; c++ {
		wg.Add(1)
		go func(fe *FrontEnd) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, true)
				mu.Lock()
				answered++
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(cluster.FrontEnd(fmt.Sprintf("c%d", c)))
	}
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()
	m1 := cluster.TotalMetrics()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	sent, prompt := m1.GossipSent-m0.GossipSent, m1.GossipPrompt-m0.GossipPrompt
	t.Logf("%d strict adds answered; %d of %d gossip frames prompt", answered, prompt, sent)
	if answered < inFlight || sent == 0 {
		t.Fatalf("no load: %d strict adds answered, %d gossip frames sent", answered, sent)
	}
	if prompt*100 >= sent {
		t.Fatalf("%d of %d gossip frames were prompt sends with %d strict operations in flight, want < 1%%", prompt, sent, inFlight)
	}
}

// TestPromptStrictUnderLoss: at 10% loss on every link a prompt frame may
// be lost like any other, and the tick's resend recovers it. Sparse strict
// operations among non-strict ones are all answered, the strict read-back
// sees every add, and no replica records a fault.
func TestPromptStrictUnderLoss(t *testing.T) {
	inner := transport.NewLiveNet()
	fnet := transport.NewFaultNet(inner, transport.FaultNetConfig{
		Seed: 7,
		Faults: func(transport.NodeID, transport.NodeID) transport.LinkFaults {
			return transport.LinkFaults{Base: 200 * time.Microsecond, Jitter: time.Millisecond, Loss: 0.10}
		},
	})
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  fnet,
		Options:  DefaultOptions(),
	})
	defer func() {
		cluster.Close()
		fnet.Close()
		inner.Close()
	}()
	cluster.StartLiveGossip(5 * time.Millisecond)
	cluster.StartLiveRetransmit(25 * time.Millisecond)
	fe := cluster.FrontEnd("c")
	const adds = 40
	var ids []ops.ID
	for i := 0; i < adds; i++ {
		x, _, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, i%5 == 0)
		if err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		ids = append(ids, x.ID)
	}
	x, v, err := fe.SubmitWait(dtype.CtrRead{}, ids, true)
	if err != nil {
		t.Fatalf("strict read-back: %v", err)
	}
	if v != int64(adds) {
		t.Fatalf("strict read-back %v = %v, want %d", x.ID, v, adds)
	}
	if st := fnet.Stats(); st.LossDropped == 0 {
		t.Fatalf("the lossy network dropped nothing: %+v", st)
	}
	if m := cluster.TotalMetrics(); m.GossipPrompt == 0 {
		t.Fatalf("no prompt send under sparse strict operations: %+v", m)
	}
	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("replica faults under honest loss: %v", faults)
	}
}

// slowGossipNet holds every gossip frame up to 400µs before handing it on,
// as a slow link or a group commit between assigning a frame and sending
// it would, and counts the frames that start past everything handed on
// before them on their link: a receiver drops such a frame and waits for
// the resend.
type slowGossipNet struct {
	transport.Network
	mu   sync.Mutex
	rng  *rand.Rand
	seq  map[[2]transport.NodeID]uint64 // the highest Seq handed on per link
	gaps int
}

func (n *slowGossipNet) Send(from, to transport.NodeID, payload any) {
	if g, ok := payload.(GossipMsg); ok {
		n.mu.Lock()
		d := time.Duration(n.rng.Int63n(int64(400 * time.Microsecond)))
		n.mu.Unlock()
		time.Sleep(d)
		n.mu.Lock()
		k := [2]transport.NodeID{from, to}
		if hi, seen := n.seq[k]; seen && g.Base > hi {
			n.gaps++
		}
		n.seq[k] = max(n.seq[k], g.Seq)
		n.mu.Unlock()
	}
	n.Network.Send(from, to, payload)
}

// TestGossipFramesLeaveInOrder: outside the shard runtime a replica's
// ticker round and a delivery goroutine's prompt send run at once; the
// non-strict adds of a second client leave entries for the rounds to
// send while lone strict adds are sent promptly. The frames must leave in
// the order their log ranges were assigned, so on a lossless network no
// frame arrives past a gap and nothing is resent.
func TestGossipFramesLeaveInOrder(t *testing.T) {
	inner := transport.NewLiveNet()
	defer inner.Close()
	net := &slowGossipNet{Network: inner, rng: rand.New(rand.NewSource(1)), seq: map[[2]transport.NodeID]uint64{}}
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  DefaultOptions(),
	})
	defer cluster.Close()
	cluster.StartLiveGossip(5 * time.Millisecond)
	stop, bg := make(chan struct{}), make(chan error, 1)
	go func() {
		fe := cluster.FrontEnd("bg")
		for {
			select {
			case <-stop:
				bg <- nil
				return
			default:
			}
			if _, _, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, false); err != nil {
				bg <- err
				return
			}
		}
	}()
	fe := cluster.FrontEnd("c")
	for i := 0; i < 100; i++ {
		if _, _, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, true); err != nil {
			t.Fatalf("strict add %d: %v", i, err)
		}
	}
	close(stop)
	if err := <-bg; err != nil {
		t.Fatalf("non-strict add: %v", err)
	}
	m := cluster.TotalMetrics()
	net.mu.Lock()
	gaps := net.gaps
	net.mu.Unlock()
	t.Logf("%d gossip frames, %d prompt, %d resent, %d past a gap", m.GossipSent, m.GossipPrompt, m.GossipResent, gaps)
	if m.GossipPrompt == 0 {
		t.Fatalf("no prompt send: %+v", m)
	}
	if gaps > 0 || m.GossipResent > 0 {
		t.Fatalf("%d gossip frames left past a gap and %d were resent on a lossless network", gaps, m.GossipResent)
	}
}
