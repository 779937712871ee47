package core

import (
	"fmt"
	"io"
	gonet "net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// TestGossipLossLiveness is the loss-liveness gate of gossip:
// 3 replicas, 300 counter operations of which 20 % are strict, submitted
// one per millisecond while SimNet drops 10 % of all messages, then 3 s
// without loss with front ends retransmitting every 30 ms. Every operation
// must be answered and every replica must end with the same done set,
// labels and stable set. A gossip frame lost during the fault window is
// content lost only until its acknowledgement is overdue.
func TestGossipLossLiveness(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runGossipLossLiveness(t, seed)
		})
	}
}

func runGossipLossLiveness(t *testing.T, seed int64) {
	const total = 300
	s := sim.New(seed)
	net := transport.NewSimNet(s, transport.SimNetConfig{
		Latency:  transport.UniformLatency(sim.Millisecond/2, 2*sim.Millisecond),
		DropProb: 0.10,
		Sizer:    EstimateSize,
	})
	cluster := NewCluster(ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  DefaultOptions(),
	})
	defer cluster.Close()
	cluster.StartSimGossip(s, 5*sim.Millisecond)
	clients := []string{"c0", "c1", "c2", "c3"}
	s.Every(30*sim.Millisecond, func() {
		for _, c := range clients {
			cluster.FrontEnd(c).Retransmit()
		}
	})

	answered, strict := 0, 0
	for i := 0; i < total; i++ {
		isStrict := i%5 == 0
		if isStrict {
			strict++
		}
		var op dtype.Operator = dtype.CtrAdd{N: 1}
		if isStrict {
			op = dtype.CtrRead{}
		}
		cluster.FrontEnd(clients[i%len(clients)]).Submit(op, nil, isStrict, func(Response) { answered++ })
		s.RunFor(sim.Millisecond)
	}
	net.SetDropProb(0)
	s.RunFor(3 * sim.Second)

	if answered != total {
		t.Errorf("%d of %d operations answered (%d strict)", answered, total, strict)
	}
	if conv := cluster.CheckConvergence(); !conv.Converged {
		t.Errorf("replicas did not converge: %s", conv.Reason)
	}
	for i, r := range cluster.LocalReplicas() {
		if m := r.Metrics(); m.StableOps != total {
			t.Errorf("replica %d: %d of %d operations stable", i, m.StableOps, total)
		}
	}
}

// tcpCutter forwards loopback connections to one address and can cut every
// connection it carries at once, as a network fault would: frames the
// senders wrote into a cut connection are lost, and until their redial
// backoff ends they drop what they are given.
type tcpCutter struct {
	ln    gonet.Listener
	to    string
	mu    sync.Mutex
	conns []gonet.Conn
}

func newTCPCutter(t *testing.T, to string) *tcpCutter {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &tcpCutter{ln: ln, to: to}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			d, err := gonet.Dial("tcp", p.to)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, d)
			p.mu.Unlock()
			go func() { io.Copy(d, c); d.Close() }()
			go func() { io.Copy(c, d); c.Close() }()
		}
	}()
	return p
}

func (p *tcpCutter) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *tcpCutter) close() {
	p.ln.Close()
	p.cut()
}

// TestGossipReconnectLivenessTCP is the loss-liveness gate over real
// sockets: 3 replicas, each on its own TCPNet (one process each, in
// effect), with every replica-to-replica connection running through a
// cutter. Mid-run every such connection is cut, so gossip frames are lost
// in the cut and during the senders' redial backoff. Later replica 2 is
// killed — network and state — and restarted on the same address and
// stable store through Recover, which gives it a new epoch and makes it a
// receiver that starts over through range rounds. Every operation must be
// answered, and the replicas must end with the same done set and labels,
// every operation stable.
func TestGossipReconnectLivenessTCP(t *testing.T) {
	RegisterWire()
	const n, total = 3, 150
	newNet := func(listen string) *transport.TCPNet {
		net, err := transport.NewTCPNet(transport.TCPConfig{Listen: listen, RedialBackoff: 30 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	nets := make([]*transport.TCPNet, n)
	addrs := make([]string, n)
	cutters := make([]*tcpCutter, n)
	for i := range nets {
		nets[i] = newNet("127.0.0.1:0")
		addrs[i] = nets[i].Addr().String()
		cutters[i] = newTCPCutter(t, addrs[i])
		defer cutters[i].close()
	}
	stores := make([]StableStore, n)
	clusters := make([]*Cluster, n)
	start := func(i int) {
		for j := 0; j < n; j++ {
			if j != i {
				nets[i].SetPeer(ReplicaNode(label.ReplicaID(j)), cutters[j].ln.Addr().String())
			}
		}
		clusters[i] = NewCluster(ClusterConfig{
			Replicas:      n,
			DataType:      dtype.Counter{},
			Network:       nets[i],
			Options:       DefaultOptions(),
			Stores:        stores,
			LocalReplicas: []int{i},
		})
		nets[i].Start()
		clusters[i].StartLiveGossip(5 * time.Millisecond)
	}
	for i := range stores {
		stores[i] = NewMemStableStore()
	}
	for i := 0; i < n; i++ {
		start(i)
	}
	defer func() {
		for i := range clusters {
			clusters[i].Close()
			nets[i].Close()
		}
	}()

	feNet := newNet("127.0.0.1:0")
	defer feNet.Close()
	for j := 0; j < n; j++ {
		feNet.SetPeer(ReplicaNode(label.ReplicaID(j)), addrs[j])
	}
	feCluster := NewCluster(ClusterConfig{Replicas: n, DataType: dtype.Counter{}, Network: feNet, Options: DefaultOptions(), LocalReplicas: []int{}})
	defer feCluster.Close()
	feNet.Start()
	feCluster.StartLiveRetransmit(50 * time.Millisecond)

	var answered atomic.Int64
	for i := 0; i < total; i++ {
		switch i {
		case total / 3:
			for _, c := range cutters {
				c.cut()
			}
		case 2 * total / 3:
			clusters[2].Close()
			nets[2].Close()
			nets[2] = newNet(addrs[2])
			start(2)
			clusters[2].Replica(2).Recover()
		}
		strict := i%5 == 0
		var op dtype.Operator = dtype.CtrAdd{N: 1}
		if strict {
			op = dtype.CtrRead{}
		}
		feCluster.FrontEnd(fmt.Sprintf("c%d", i%2)).Submit(op, nil, strict, func(Response) { answered.Add(1) })
		time.Sleep(2 * time.Millisecond)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r2 := clusters[2].Replica(2)
		if r2.Recovering() {
			r2.RetryRecovery()
		}
		converged := ""
		if got := answered.Load(); got != total {
			converged = fmt.Sprintf("%d of %d operations answered", got, total)
		} else {
			converged = tcpConverged(clusters, total)
		}
		if converged == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(converged)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var resent uint64
	for i, c := range clusters {
		resent += c.Replica(i).Metrics().GossipResent
	}
	if resent == 0 {
		t.Fatal("no gossip was resent: the cut lost nothing, the cell proves nothing")
	}
}

// tcpConverged compares the per-process replicas' snapshots: "" when every
// replica has all total operations done and stable under the same labels,
// else the first mismatch.
func tcpConverged(clusters []*Cluster, total int) string {
	base := clusters[0].Replica(0).Snapshot()
	for i, c := range clusters {
		r := c.Replica(i)
		snap := r.Snapshot()
		if len(snap.Done) != total {
			return fmt.Sprintf("replica %d has %d of %d operations done", i, len(snap.Done), total)
		}
		if got := r.Metrics().StableOps; got != total {
			return fmt.Sprintf("replica %d holds %d of %d operations stable", i, got, total)
		}
		for id, l := range base.Labels {
			if snap.Labels[id] != l {
				return fmt.Sprintf("label of %v: replica 0 has %v, replica %d has %v", id, l, i, snap.Labels[id])
			}
		}
	}
	return ""
}

// TestQuiescentGossipFrameFlat checks that a gossip frame costs what
// changed, not the history behind it: after 1k and after 50k operations, a
// quiescent cluster sends the same bytes for one more operation. Fig. 7's
// full-state frame grows with the history instead (about 41 B per
// operation ever done).
func TestQuiescentGossipFrameFlat(t *testing.T) {
	oneOp := func(history int) (bytes, frames uint64, full int) {
		s := sim.New(1)
		var gossipBytes, gossipFrames uint64
		net := transport.NewSimNet(s, transport.SimNetConfig{
			Sizer: func(p any) int {
				n := EstimateSize(p)
				if _, ok := p.(GossipMsg); ok {
					gossipBytes += uint64(n)
					gossipFrames++
				}
				return n
			},
		})
		cluster := NewCluster(ClusterConfig{Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: DefaultOptions()})
		defer cluster.Close()
		cluster.StartSimGossip(s, 5*sim.Millisecond)
		fe := cluster.FrontEnd("c")
		for i := 0; i < history; i++ {
			fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
			if i%50 == 49 {
				s.RunFor(sim.Millisecond)
			}
		}
		s.RunFor(500 * sim.Millisecond)
		if conv := cluster.CheckConvergence(); !conv.Converged || len(conv.Order) != history {
			t.Fatalf("history of %d did not converge: %s", history, conv.Reason)
		}
		b0, f0 := gossipBytes, gossipFrames
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
		s.RunFor(500 * sim.Millisecond)
		return gossipBytes - b0, gossipFrames - f0, cluster.Replica(0).FullGossipSize()
	}
	smallB, smallF, smallFull := oneOp(1000)
	bigB, bigF, bigFull := oneOp(50000)
	t.Logf("one operation after 1k: %d B in %d frames (full frame %d B); after 50k: %d B in %d frames (full frame %d B)",
		smallB, smallF, smallFull, bigB, bigF, bigFull)
	if smallF == 0 || bigB != smallB || bigF != smallF {
		t.Fatalf("gossip for one operation grew with the history: %d B in %d frames after 1k, %d B in %d frames after 50k", smallB, smallF, bigB, bigF)
	}
	if bigFull < 40*smallFull {
		t.Fatalf("full-state frame %d B after 50k, %d B after 1k: the baseline no longer grows with the history", bigFull, smallFull)
	}
}

// TestGossipHeaderRejects sends replica 0 frames from replica 1 whose
// headers no honest sender writes — an Ack above every position replica 0
// ever sent replica 1, and a Base above its Seq — each carrying a new
// operation done at replica 1. Each is counted and ignored whole: the
// acknowledgement, the watermark and the content all stay unapplied.
func TestGossipHeaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		header func(l peerLink) (base, seq, ack uint64)
	}{
		{"ack-above-sent", func(l peerLink) (uint64, uint64, uint64) { return l.mark, l.mark + 1, l.sent + 1 }},
		{"base-above-seq", func(l peerLink) (uint64, uint64, uint64) { return l.mark + 2, l.mark + 1, l.sent }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEnv(t, 2, dtype.Counter{}, DefaultOptions())
			defer e.cluster.Close()
			e.submit("c", dtype.CtrAdd{N: 1}, nil, false)
			e.s.RunFor(100 * sim.Millisecond)
			r0 := e.cluster.Replica(0)
			r0.mu.Lock()
			before := r0.links[1]
			r0.mu.Unlock()
			if before.epoch == 0 || before.mark == before.epoch {
				t.Fatalf("setup: replica 0 has not exchanged gossip with replica 1: %+v", before)
			}

			x := ops.New(dtype.CtrAdd{N: 7}, ops.ID{Client: "forged", Seq: 1}, nil, false)
			msg := GossipMsg{From: 1, Epoch: before.epoch, R: []ops.Operation{x}, D: []ops.ID{x.ID},
				L: map[ops.ID]label.Label{x.ID: label.Make(1000, 1)}}
			msg.Base, msg.Seq, msg.Ack = tc.header(before)
			rejects := r0.Metrics().GossipHeaderRejects
			r0.handleMessage(transport.Message{Payload: msg})

			if got := r0.Metrics().GossipHeaderRejects; got != rejects+1 {
				t.Fatalf("GossipHeaderRejects %d -> %d, want one more", rejects, got)
			}
			r0.mu.Lock()
			after := r0.links[1]
			known := r0.ids.get(x.ID) != nil
			r0.mu.Unlock()
			if after.acked != before.acked || after.mark != before.mark || known {
				t.Fatalf("rejected header applied: acked %d -> %d, mark %d -> %d, forged op known %v",
					before.acked, after.acked, before.mark, after.mark, known)
			}
		})
	}
}
