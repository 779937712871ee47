// Per-layer micro-benchmarks of the core algorithm, the data types and the
// live transport. `make microbench` runs them with real iteration counts
// and allocs/op; the paper's evaluation tables are E1–E9 (cmd/esds-bench),
// and end-to-end performance is measured by benchmark/run.sh.
package esds_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"esds"
	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/transport"
)

// BenchmarkLabelGeneration measures label assignment (ℒ_r partition).
func BenchmarkLabelGeneration(b *testing.B) {
	g := label.NewGenerator(1)
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkLabelMapMergeMin measures the gossip label merge on a 1k-entry
// snapshot.
func BenchmarkLabelMapMergeMin(b *testing.B) {
	src := label.NewMap()
	for i := 0; i < 1000; i++ {
		src.SetMin(ops.ID{Client: "c", Seq: uint64(i)}, label.Make(uint64(i+1), 0))
	}
	snap := src.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := label.NewMap()
		dst.MergeMin(snap)
	}
}

// BenchmarkGossipRound measures one full-gossip round of a 3-replica
// cluster holding 500 operations.
func BenchmarkGossipRound(b *testing.B) {
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas: 3, DataType: dtype.Counter{}, Network: net,
		Options: core.Options{Memoize: true},
	})
	fe := cluster.FrontEnd("c")
	for i := 0; i < 500; i++ {
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	}
	s.Run(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.GossipAll()
		s.Run(0)
	}
}

// BenchmarkRetainedHistoryGC measures what a replica's retained history
// costs the collector: one replica of three holding 100k counter
// operations, stable everywhere, memoized and pruned, each with its
// memoized and commute-mode value (the state tcp_pipelined leaves behind).
// ns/op is one runtime.GC(), which marks the whole heap; heap-B/id is what
// the history added to the live heap, per identifier.
func BenchmarkRetainedHistoryGC(b *testing.B) {
	const history = 100_000
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	s := sim.New(1)
	net := transport.NewSimNet(s, transport.SimNetConfig{})
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas: 3, DataType: dtype.Counter{}, Network: net,
		Options: core.Options{Memoize: true, Prune: true, Commute: true},
	})
	to, from := cluster.Nodes()[0], cluster.Nodes()[1]
	for seq := uint64(0); seq < history; seq += 1000 {
		m := core.GossipMsg{From: 1, Base: 3 * seq, Seq: 3 * (seq + 1000), Clients: []string{"c"},
			L: []core.LabelRun{{IDRun: core.IDRun{Seq: seq + 1, N: 1000}, Label: label.Make(seq+1, 1)}},
			S: []core.IDRun{{Seq: seq + 1, N: 1000}}}
		for k := range uint64(1000) {
			m.R = append(m.R, ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "c", Seq: seq + 1 + k}, nil, false))
		}
		net.Send(from, to, m)
		s.Run(0)
	}
	grown := float64(heap()-before) / history
	if got := cluster.Replica(0).Metrics().MemoizedOps; got != history {
		b.Fatalf("replica 0 memoized %d of %d operations", got, history)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	b.ReportMetric(grown, "heap-B/id")
	runtime.KeepAlive(cluster)
}

// liveBenchCluster starts the 3-replica counter cluster the live submit
// benchmarks drive, wired as esds.New wires an unsharded service but
// running opt and a 1ms gossip period. It returns the cluster (the "bench"
// client's front end is c.FrontEnd("bench")) and a function that stops it.
func liveBenchCluster(opt core.Options) (*core.Cluster, func()) {
	net := transport.NewLiveNet()
	c := core.NewCluster(core.ClusterConfig{
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  net,
		Options:  opt,
	})
	c.StartLiveGossip(time.Millisecond)
	c.StartLiveRetransmit(core.RetransmitInterval)
	if opt.BatchSize > 1 {
		c.StartLiveBatchFlush(opt.FlushPeriod())
	}
	return c, func() {
		c.Close()
		net.Close()
	}
}

// BenchmarkLiveSubmitNonStrict measures the end-to-end latency path of a
// non-strict operation on the live transport. The cluster is recreated
// every few thousand operations so the measurement reflects a bounded
// history (otherwise per-op gossip cost grows with b.N and the benchmark
// measures history length, not the submit path).
func BenchmarkLiveSubmitNonStrict(b *testing.B) {
	const historyCap = 4000
	c, stop := liveBenchCluster(core.DefaultOptions())
	fe := c.FrontEnd("bench")
	defer func() { stop() }()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%historyCap == 0 {
			b.StopTimer()
			stop()
			c, stop = liveBenchCluster(core.DefaultOptions())
			fe = c.FrontEnd("bench")
			b.StartTimer()
		}
		fe.SubmitWait(dtype.CtrAdd{N: 1}, nil, false)
	}
}

// BenchmarkLivePipelinedSubmit measures the pipelined submission hot path
// on the live in-process transport, unbatched vs batched: b.N non-strict
// increments in flight up to a 128-deep window. Run with -benchmem — the
// allocation pass on the label-compare/memoize path and the per-frame
// savings of batching both show up here. The batched run also reports
// ops/frame, the replicas' requests received per request batch: a change
// that splits one client's stream across replicas again shows up there as
// a count, not as noisy latency. The cluster is recreated every few
// thousand operations so the measurement reflects a bounded history.
func BenchmarkLivePipelinedSubmit(b *testing.B) {
	for _, batch := range []int{1, 32} {
		name := "unbatched"
		if batch > 1 {
			name = "batch-32"
		}
		b.Run(name, func(b *testing.B) {
			const historyCap = 4000
			opt := core.DefaultOptions()
			opt.BatchSize = batch
			opt.BatchDelay = time.Millisecond
			c, stop := liveBenchCluster(opt)
			fe := c.FrontEnd("bench")
			defer func() { stop() }()
			var requests, batches uint64
			count := func() {
				m := c.TotalMetrics()
				requests += m.RequestsReceived
				batches += m.RequestBatchesReceived
			}
			window := make(chan struct{}, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%historyCap == 0 {
					b.StopTimer()
					for len(window) > 0 { // drain before teardown
						time.Sleep(time.Millisecond)
					}
					count()
					stop()
					c, stop = liveBenchCluster(opt)
					fe = c.FrontEnd("bench")
					b.StartTimer()
				}
				window <- struct{}{}
				fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(core.Response) { <-window })
			}
			for len(window) > 0 {
				time.Sleep(time.Millisecond)
			}
			count()
			if batches > 0 {
				b.ReportMetric(float64(requests)/float64(batches), "ops/frame")
			}
		})
	}
}

// BenchmarkValueComputation contrasts response-value computation with and
// without the memoized solid prefix at a 2000-op history, and on an
// unstable suffix that never stabilizes: a Directory replica with gossip
// stopped, where every response at the end of the local order is computed
// from the suffix — by Fig. 7's replay its cost grows with the history,
// from the suffix cache it is one apply.
func BenchmarkValueComputation(b *testing.B) {
	for _, memo := range []bool{false, true} {
		name := "memoized"
		if !memo {
			name = "recompute"
		}
		b.Run(name, func(b *testing.B) {
			s := sim.New(1)
			net := transport.NewSimNet(s, transport.SimNetConfig{})
			cluster := core.NewCluster(core.ClusterConfig{
				Replicas: 2, DataType: dtype.Counter{}, Network: net,
				Options: core.Options{Memoize: memo},
			})
			cluster.StartSimGossip(s, 5*sim.Millisecond)
			fe := cluster.FrontEnd("c")
			for i := 0; i < 2000; i++ {
				fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
			}
			s.RunFor(2 * sim.Second)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fe.Submit(dtype.CtrRead{}, nil, false, nil)
				s.RunFor(10 * sim.Millisecond)
			}
		})
	}
	b.Run("unstable-suffix", func(b *testing.B) {
		s := sim.New(1)
		net := transport.NewSimNet(s, transport.SimNetConfig{})
		cluster := core.NewCluster(core.ClusterConfig{
			Replicas: 2, DataType: dtype.Directory{}, Network: net,
			Options: core.DefaultOptions(),
		})
		fe := cluster.FrontEnd("c")
		fe.StickTo(core.ReplicaNode(0))
		ops := dirBenchCycle()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fe.Submit(ops[i%len(ops)], nil, false, nil)
			s.RunFor(sim.Millisecond)
		}
	})
}

// dirBenchCycle is a bind/setattr/getattr/lookup/unbind cycle over a
// 64-name directory: the name it binds is unbound again, so the state
// keeps its size however many times the cycle runs.
func dirBenchCycle() []dtype.Operator {
	return []dtype.Operator{
		dtype.DirBind{Name: "n99"},
		dtype.DirSetAttr{Name: "n99", Key: "k0", Val: "v"},
		dtype.DirGetAttr{Name: "n31", Key: "k2"},
		dtype.DirLookup{Name: "n42"},
		dtype.DirUnbind{Name: "n99"},
	}
}

// BenchmarkDataTypeApply measures the serial data types' transition
// functions: one operator applied to its own output from the initial
// state, except the directory, which cycles dirBenchCycle over 64 names
// with 4 attributes each (the benchmark workload's shape), and the keyed
// counters, which cycle an add over every one of 16, 256 or 4 096 existing
// objects (one keyspace shard's share at the benchmark workload's 1 024
// objects is 256). A write's cost should not grow with the object count.
func BenchmarkDataTypeApply(b *testing.B) {
	keyed := dtype.NewKeyed(dtype.Counter{})
	keyedAdds := func(objects int) []dtype.Operator {
		out := make([]dtype.Operator, objects)
		for i := range out {
			out[i] = dtype.KeyedOp{Key: fmt.Sprintf("s%02d/o%02d", i/16, i%16), Op: dtype.CtrAdd{N: 1}}
		}
		return out
	}
	keyedAt := func(ops []dtype.Operator) func() dtype.State {
		return func() dtype.State { return dtype.ApplyAll(keyed, keyed.Initial(), ops) }
	}
	k16, k256, k4096 := keyedAdds(16), keyedAdds(256), keyedAdds(4096)
	dir := func() dtype.State {
		var d dtype.Directory
		st := d.Initial()
		for i := 0; i < 64; i++ {
			name := fmt.Sprintf("n%02d", i)
			st, _ = d.Apply(st, dtype.DirBind{Name: name})
			for k := 0; k < 4; k++ {
				st, _ = d.Apply(st, dtype.DirSetAttr{Name: name, Key: fmt.Sprintf("k%d", k), Val: fmt.Sprintf("v%d", i)})
			}
		}
		return st
	}
	cases := []struct {
		name string
		dt   dtype.DataType
		init func() dtype.State // nil: the type's initial state
		ops  []dtype.Operator   // applied in turn
	}{
		{"counter", dtype.Counter{}, nil, []dtype.Operator{dtype.CtrAdd{N: 1}}},
		{"register", dtype.Register{}, nil, []dtype.Operator{dtype.RegWrite{Val: "v"}}},
		{"set", dtype.Set{}, nil, []dtype.Operator{dtype.SetAdd{Elem: "e"}}},
		{"directory", dtype.Directory{}, dir, dirBenchCycle()},
		{"log", dtype.Log{}, nil, []dtype.Operator{dtype.LogLen{}}},
		{"bank", dtype.Bank{}, nil, []dtype.Operator{dtype.BankDeposit{Account: "a", Amount: 1}}},
		{"keyed-16", keyed, keyedAt(k16), k16},
		{"keyed-256", keyed, keyedAt(k256), k256},
		{"keyed-4096", keyed, keyedAt(k4096), k4096},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			st := tc.dt.Initial()
			if tc.init != nil {
				st = tc.init()
			}
			// Collect the set-up's garbage now, so a GC cycle it would
			// trigger is not charged to the operators timed.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, _ = tc.dt.Apply(st, tc.ops[i%len(tc.ops)])
			}
			_ = st
		})
	}
}

// BenchmarkFrontEndFlush measures one batch-flush tick (Cluster.FlushAll)
// over 256 batched front ends of which one is busy — the shape of a
// keyspace shard serving 64 sessions at a few operations per second each.
// The other 255 each submitted once and have idled since, so their targets
// are closed and they have left the flush set. The cluster hosts no
// replica, so the sent requests are dropped and the number is the
// submission and flush path alone.
func BenchmarkFrontEndFlush(b *testing.B) {
	b.Run("idle-256", func(b *testing.B) {
		net := transport.NewLiveNet()
		defer net.Close()
		opt := core.DefaultOptions()
		opt.BatchSize = 32
		cluster := core.NewCluster(core.ClusterConfig{
			Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: opt,
			LocalReplicas: []int{},
		})
		defer cluster.Close()
		fes := make([]*core.FrontEnd, 256)
		for i := range fes {
			fes[i] = cluster.FrontEnd(fmt.Sprintf("c%03d", i))
			fes[i].Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
		}
		for i := 0; i < 100; i++ {
			cluster.FlushAll()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fes[0].Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
			cluster.FlushAll()
		}
	})
}

// BenchmarkIdleKeyspace measures what the shipped sharded service costs
// while it serves nothing: esds.New with 4 shards × 3 replicas, left idle.
// Each iteration is one millisecond of wall clock, and cpu-ms/s is the
// process's user plus system CPU (rusage) per second of it — the price of
// the gossip, retransmission and flush tickers of twelve replicas, which
// wake whether or not there is anything to send.
func BenchmarkIdleKeyspace(b *testing.B) {
	svc, err := esds.New(esds.Config{Shards: 4, Replicas: 3, DataType: esds.Counter()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	time.Sleep(50 * time.Millisecond) // past start-up
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			b.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b.ResetTimer()
	c0, t0 := cpu(), time.Now()
	time.Sleep(time.Duration(b.N) * time.Millisecond) // one sleep: a wake-up per iteration would be charged too
	used, wall := cpu()-c0, time.Since(t0)
	b.StopTimer()
	b.ReportMetric(float64(used)/float64(time.Millisecond)/wall.Seconds(), "cpu-ms/s")
}

// BenchmarkTCPNetFrames measures the TCP transport alone: b.N frames of
// one payload sent from one loopback TCPNet to another and timed until the
// last is delivered, so ns/op is the cost of a frame through encode,
// socket and decode, and -benchmem's allocs/op is allocations per frame.
// batch-request-32 is a front end's request batch of 32 increments;
// batch-response-32 is a replica's answer to it; compact-gossip-64 is the
// compact gossip frame a replica sends after taking 64 operations. One
// frame is delivered before the timer starts, so the dial and that
// connection's first type definitions are not counted.
func BenchmarkTCPNetFrames(b *testing.B) {
	core.RegisterWire()
	batch := core.BatchRequestMsg{Ops: make([]ops.Operation, 32)}
	for i := range batch.Ops {
		batch.Ops[i] = ops.New(dtype.CtrAdd{N: 1}, ops.ID{Client: "bench", Seq: uint64(i + 1)}, nil, false)
	}
	resps := core.BatchResponseMsg{Resps: make([]core.ResponseMsg, 32)}
	for i := range resps.Resps {
		resps.Resps[i] = core.ResponseMsg{ID: batch.Ops[i].ID, Value: "ok"}
	}
	b.Run("batch-request-32", func(b *testing.B) { benchTCPFrames(b, batch) })
	b.Run("batch-response-32", func(b *testing.B) { benchTCPFrames(b, resps) })
	b.Run("compact-gossip-64", func(b *testing.B) { benchTCPFrames(b, compactGossip64()) })
}

func benchTCPFrames(b *testing.B, payload any) {
	dst, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	src, err := transport.NewTCPNet(transport.TCPConfig{
		Listen: "127.0.0.1:0",
		Peers:  map[transport.NodeID]string{"dst": dst.Addr().String()},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	var delivered atomic.Int64
	dst.RegisterInline("dst", func(transport.Message) { delivered.Add(1) })
	dst.Start()
	src.Start()
	wait := func(n int64) {
		deadline := time.Now().Add(30 * time.Second)
		for delivered.Load() < n {
			if time.Now().After(deadline) {
				b.Fatalf("%d of %d frames delivered (stats %+v)", delivered.Load(), n, src.Stats())
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	src.Send("src", "dst", payload)
	wait(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send("src", "dst", payload)
	}
	wait(int64(b.N) + 1)
}

// compactGossip64 returns a compact gossip frame a replica of a
// three-replica cluster sends a peer after taking 64 increments. The
// cluster runs on a SimNet that claims every node negotiated the compact
// form.
func compactGossip64() core.CompactGossipMsg {
	s := sim.New(1)
	net := &compactCapture{SimNet: transport.NewSimNet(s, transport.SimNetConfig{})}
	cluster := core.NewCluster(core.ClusterConfig{
		Replicas: 3, DataType: dtype.Counter{}, Network: net, Options: core.DefaultOptions(),
	})
	fe := cluster.FrontEnd("bench")
	for i := 0; i < 3*64; i++ { // round robin: 64 to each replica
		fe.Submit(dtype.CtrAdd{N: 1}, nil, false, nil)
	}
	s.Run(0)
	cluster.GossipAll()
	return net.frame
}

// compactCapture is a SimNet that negotiates the compact gossip form for
// every node and keeps the largest compact frame sent.
type compactCapture struct {
	*transport.SimNet
	frame core.CompactGossipMsg
}

func (c *compactCapture) Send(from, to transport.NodeID, payload any) {
	if m, ok := payload.(core.CompactGossipMsg); ok && len(m.Data) > len(c.frame.Data) {
		c.frame = m
	}
	c.SimNet.Send(from, to, payload)
}

func (*compactCapture) AnnounceFeatures(transport.NodeID, uint32) {}

func (*compactCapture) PeerFeatures(transport.NodeID) uint32 {
	return transport.FeatureCompactGossip
}
