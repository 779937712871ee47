package core

import (
	"fmt"
	"runtime"
	"testing"

	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// BenchmarkGossipMerge measures the receive side of incremental gossip
// against the history a replica holds (run with -benchmem): replica 0 of
// a three-replica cluster holds N operations done and stable everywhere
// (history-N), and each iteration merges one delta from replica 1 — 64 new
// descriptors with their labels, done at the sender, plus the previous
// delta's 64 operations now stable — and runs the internal actions,
// memoizing what became stable. The deltas grow the history, so it is
// rebuilt (timer stopped, then collected) whenever they have added a
// quarter of N: every iteration sees between N and 1.25N identifiers. One
// client issues the operations, so D, L and S are a run each, except in
// lone, where 64 clients issue one each per delta and every run names one
// identifier (the shape of in-process and keyspace gossip). compact-dense
// also encodes each delta in the compact form and the replica decodes it
// (the shape of tcp_pipelined's gossip).
func BenchmarkGossipMerge(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("history-%dk", n/1000), func(b *testing.B) { benchGossipMerge(b, n, 1, false) })
	}
	b.Run("compact-dense", func(b *testing.B) { benchGossipMerge(b, 1000, 1, true) })
	b.Run("lone", func(b *testing.B) { benchGossipMerge(b, 1000, 64, false) })
}

func benchGossipMerge(b *testing.B, history, clients int, compact bool) {
	const delta = 64
	var (
		s        *sim.Sim
		net      *transport.SimNet
		to, from transport.NodeID
		seq, pos uint64
		deltas   []GossipMsg
		cluster  *Cluster
	)
	names, next := make([]string, clients), make([]uint64, clients)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	// gossip is replica 1's message carrying k new operations, stable at
	// every replica or done at the sender only, labelled in sequence; its
	// header continues the previous message's, with room for the S the
	// next delta adds. Its client table lists every client.
	gossip := func(k int, stable bool) GossipMsg {
		m := GossipMsg{From: 1, R: make([]ops.Operation, 0, k), Clients: names, L: make([]LabelRun, 0, k)}
		runs := make([]IDRun, 0, k)
		for i := 0; i < k; i++ {
			seq++
			c := seq % uint64(clients)
			next[c]++
			id := ops.ID{Client: names[c], Seq: next[c]}
			m.R = append(m.R, ops.New(dtype.CtrAdd{N: 1}, id, nil, false))
			if n := len(runs) - 1; clients == 1 && n >= 0 {
				runs[n].N++
				m.L[n].N++
			} else {
				run := IDRun{Seq: id.Seq, Client: uint32(c), N: 1}
				runs = append(runs, run)
				m.L = append(m.L, LabelRun{IDRun: run, Label: label.Make(seq, 1)})
			}
		}
		if stable {
			m.S = runs
		} else {
			m.D = runs
		}
		m.Base, m.Seq = pos, pos+uint64(4*k) // R, L, D and S to come
		pos = m.Seq
		return m
	}
	build := func() {
		s = sim.New(1)
		net = transport.NewSimNet(s, transport.SimNetConfig{})
		cluster = NewCluster(ClusterConfig{
			Replicas: 3, DataType: dtype.Counter{}, Network: net,
			Options: Options{Memoize: true},
		})
		to, from = cluster.Nodes()[0], cluster.Nodes()[1]
		seq, pos = 0, 0
		clear(next)
		for held := 0; held < history; held += 1000 {
			net.Send(from, to, gossip(min(1000, history-held), true))
			s.Run(0)
		}
		deltas = make([]GossipMsg, history/delta/4+1)
		for i := range deltas {
			deltas[i] = gossip(delta, false)
			if i > 0 {
				deltas[i].S = deltas[i-1].D
			}
		}
		// Collect the previous history and the set-up's garbage now, with
		// the timer stopped, not inside the timed merges that follow.
		runtime.GC()
	}
	build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(deltas) == 0 {
			b.StopTimer()
			build()
			b.StartTimer()
		}
		var msg any = deltas[i%len(deltas)]
		if compact {
			m, err := encodeCompactGossip(deltas[i%len(deltas)])
			if err != nil {
				b.Fatal(err)
			}
			msg = m
		}
		net.Send(from, to, msg)
		s.Run(0)
	}
	b.StopTimer()
	if m := cluster.Replica(0).Metrics(); m.GossipHeaderRejects+m.CompactGossipRejects != 0 || m.DoneOps < history {
		b.Fatalf("replica 0 rejected %d frames and holds %d of at least %d operations done",
			m.GossipHeaderRejects+m.CompactGossipRejects, m.DoneOps, history)
	}
}
