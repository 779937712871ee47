package core

import (
	"testing"
	"time"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/transport"
)

// legacyWire hides a transport's FeatureNegotiator: only the Network
// methods are promoted, so a replica built on it neither announces nor sees
// FeatureCompactGossip — it behaves like a build that predates the codec.
type legacyWire struct{ transport.Network }

// TestCompactGossipMixedVersionInterop runs a 3-replica cluster, each member
// on its own loopback TCPNet the way three processes would, where replicas 0
// and 2 negotiate the compact gossip form and replica 1 is built on a
// non-negotiating wire. The cluster must converge, the compact pair must
// actually use the compact form, and the legacy replica must never be sent
// one. Both forms carry D, L and S as runs — codec V5 and plain gob — and
// no replica may refuse a frame an honest peer built: no compact frame is
// rejected and no plain frame's runs fail the receiver's check.
func TestCompactGossipMixedVersionInterop(t *testing.T) {
	RegisterWire()
	const n = 3
	nets := make([]*transport.TCPNet, n)
	addrs := make([]string, n)
	for i := range nets {
		net, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0", Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer net.Close()
		nets[i], addrs[i] = net, net.Addr().String()
	}
	opt := DefaultOptions()
	opt.BatchSize = 8
	opt.BatchDelay = time.Millisecond
	clusters := make([]*Cluster, n)
	for i := range clusters {
		for j := range addrs {
			if j != i {
				nets[i].SetPeer(ReplicaNode(label.ReplicaID(j)), addrs[j])
			}
		}
		var net transport.Network = nets[i]
		if i == 1 {
			net = legacyWire{net}
		}
		clusters[i] = NewCluster(ClusterConfig{
			Replicas:      n,
			DataType:      dtype.Counter{},
			Network:       net,
			Options:       opt,
			LocalReplicas: []int{i},
		})
		defer clusters[i].Close()
		nets[i].Start()
	}
	for _, c := range clusters {
		c.StartLiveGossip(time.Millisecond)
		c.StartLiveRetransmit(50 * time.Millisecond)
		c.StartLiveBatchFlush(opt.FlushPeriod())
	}

	const adds = 60
	fe := clusters[0].FrontEnd("upgrader")
	for i := 0; i < adds; i++ {
		if _, v, err := fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, false); err != nil || v != "ok" {
			t.Fatalf("add %d: v=%v err=%v", i, v, err)
		}
	}

	// A strict read stabilizes only after gossip exchange with every
	// replica — legacy included — so a correct answer here IS the interop
	// claim. Read through both kinds of member: each proves its replica
	// applied the whole history. Keep reading until the compact pair has
	// demonstrably used the compact form at least once in each direction.
	deadline := time.Now().Add(10 * time.Second)
	for {
		okA := false
		if _, v, err := clusters[0].FrontEnd("readerA").SubmitWait(dtype.CtrRead{}, nil, true); err == nil && v == int64(adds) {
			okA = true
		} else if time.Now().After(deadline) {
			t.Fatalf("compact-member strict read: v=%v err=%v", v, err)
		}
		m0 := clusters[0].Replica(0).Metrics()
		m2 := clusters[2].Replica(2).Metrics()
		if okA && m0.CompactGossipSent > 0 && m2.CompactGossipSent > 0 &&
			m0.CompactGossipReceived > 0 && m2.CompactGossipReceived > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compact pair never exchanged compact frames: r0=%+v r2=%+v", m0, m2)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, v, err := clusters[1].FrontEnd("readerB").SubmitWait(dtype.CtrRead{}, nil, true); err != nil || v != int64(adds) {
		t.Fatalf("legacy-member strict read: v=%v err=%v", v, err)
	}

	// The legacy replica must have seen only legacy frames: nothing compact
	// delivered, nothing rejected, and it must never have sent compact.
	m1 := clusters[1].Replica(1).Metrics()
	if m1.CompactGossipReceived != 0 || m1.CompactGossipRejects != 0 || m1.CompactGossipSent != 0 {
		t.Fatalf("legacy replica touched the compact path: %+v", m1)
	}
	for i, c := range clusters {
		if m := c.Replica(i).Metrics(); m.CompactGossipRejects != 0 || m.GossipHeaderRejects != 0 {
			t.Fatalf("replica %d refused honest gossip: %d compact frames rejected, %d plain frames' headers or runs",
				i, m.CompactGossipRejects, m.GossipHeaderRejects)
		}
	}
	// And the upgraded replicas must have degraded to legacy frames toward
	// it rather than dropping gossip: it received plenty.
	if m1.GossipReceived == 0 {
		t.Fatalf("legacy replica received no gossip at all: %+v", m1)
	}
	for _, c := range clusters {
		if errs := c.Faults(); len(errs) > 0 {
			t.Fatalf("replica faults in mixed-version cluster: %v", errs)
		}
	}
}
