// TCP cluster: three ESDS replicas communicating over real loopback
// sockets, assembled in one process for demonstration. Each replica owns
// its own transport.TCPNet, exactly as it would in its own OS process —
// to deploy the members as separate processes, run cmd/esds-server
// instead (same wiring, one member per invocation).
//
// Run with:
//
//	go run ./examples/tcpcluster
package main

import (
	"fmt"
	"log"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/transport"
)

func main() {
	// Every process of a TCP cluster must register the wire types before
	// any message is encoded or decoded.
	core.RegisterWire()
	const n = 3
	// Every member runs the shipped configuration, as esds-server does:
	// the batched hot path and the core package's protocol timers.
	opt := core.BatchedOptions()

	// Bind one listener per replica first, so the full peer table is known
	// before any member starts talking.
	nets := make([]*transport.TCPNet, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		net, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			log.Fatal(err)
		}
		defer net.Close()
		nets[i] = net
		addrs[i] = net.Addr().String()
		fmt.Printf("replica %d listening on %s\n", i, addrs[i])
	}

	// Each cluster member instantiates only its own replica
	// (LocalReplicas); the other two are reached through the peer table.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				nets[i].SetPeer(core.ReplicaNode(label.ReplicaID(j)), addrs[j])
			}
		}
		member := core.NewCluster(core.ClusterConfig{
			Replicas:      n,
			DataType:      dtype.Counter{},
			Network:       nets[i],
			Options:       opt,
			LocalReplicas: []int{i},
		})
		defer member.Close()
		nets[i].Start()
		member.StartLiveGossip(core.GossipInterval)
	}

	// The client runs on its own transport, like a fourth process. The
	// replicas learn its address from its first request, so only the
	// client→replica direction needs configuration.
	feNet, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer feNet.Close()
	for j := 0; j < n; j++ {
		feNet.SetPeer(core.ReplicaNode(label.ReplicaID(j)), addrs[j])
	}
	feMember := core.NewCluster(core.ClusterConfig{
		Replicas:      n,
		DataType:      dtype.Counter{},
		Network:       feNet,
		Options:       opt,
		LocalReplicas: []int{}, // front-end-only member: no replica here
	})
	defer feMember.Close()
	feNet.Start()
	fe := feMember.FrontEnd("alice")

	// Over real sockets a frame can always be lost; the retransmission
	// ticker is the paper's §6.2 liveness mechanism against that. The
	// flusher sends a partially filled request batch after BatchDelay.
	feMember.StartLiveRetransmit(core.RetransmitInterval)
	feMember.StartLiveBatchFlush(opt.FlushPeriod())

	// A non-strict increment: answered from one replica's local view after
	// a single request/response over TCP.
	add, v, err := fe.SubmitWait(dtype.CtrAdd{N: 42}, nil, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-strict add(42) -> %v\n", v)

	// A strict read causally after the add: the response is withheld until
	// the read's position in the eventual total order is fixed, which
	// takes a few gossip rounds across the sockets.
	_, v, err = fe.SubmitWait(dtype.CtrRead{}, []ops.ID{add.ID}, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strict read -> %v (final: serialized after the add on every replica)\n", v)

	stats := feNet.Stats()
	fmt.Printf("client wire traffic: %d messages, %d bytes\n", stats.Sent, stats.Bytes)
}
