package exp

import (
	"fmt"
	"sync"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/ops"
	"esds/internal/stats"
	"esds/internal/transport"
)

// E12: batched hot path (DESIGN.md §8). Like E10/E11 this is NOT a
// virtual-time simulation: it runs a real multi-transport cluster — every
// replica on its own TCPNet, the clients on a fourth, the in-process
// equivalent of four OS processes on loopback sockets — because the effect
// under test is real execution cost: per-frame encoding, per-frame
// syscalls, and per-message replica mutex rounds, all of which batching
// amortizes across BatchSize operations. The sweep holds the pipelined
// workload fixed and varies (batch size, flush delay); the first point is
// the unbatched baseline every later perf PR diffs against. Wire bytes are
// real frame bytes from transport.Stats, not Sizer estimates.

// BatchPoint is one swept (batch size, flush delay) configuration.
type BatchPoint struct {
	Size  int           // Options.BatchSize (1 = unbatched)
	Delay time.Duration // Options.BatchDelay
}

// BatchingParams configures the batched-hot-path experiment.
type BatchingParams struct {
	// Replicas is the cluster size; each replica runs on its own TCPNet.
	Replicas int
	// Clients are concurrent pipelined submitters sharing one client-side
	// TCPNet.
	Clients int
	// OpsPerClient is the number of non-strict increments each client
	// submits.
	OpsPerClient int
	// Window bounds each client's in-flight submissions (the pipeline
	// depth): a submission waits until fewer than Window responses are
	// outstanding.
	Window int
	// Points is the sweep; the FIRST entry is the baseline the speedup is
	// computed against (conventionally {1, 0}, the unbatched hot path).
	Points []BatchPoint
	// GossipInterval is the anti-entropy period.
	GossipInterval time.Duration
	// MinFrameCut makes Verify fail unless batching cuts frames per
	// operation at least this many times: the baseline's frames/op over the
	// fewest frames/op of any batched point. Frames are counted, not timed,
	// so the gate means the same on any runner; the wall-clock speedup is
	// reported, not gated. ≤ 0 disables the gate (smoke runs).
	MinFrameCut float64
}

// DefaultBatchingParams is the headline configuration: a 3-replica counter
// cluster, 4 clients × 2000 pipelined increments, swept over batch sizes
// 8–128. Commute mode is on (the workload is independent increments with a
// strict read-back — the SafeUsers discipline), matching E10's realistic
// perf posture.
func DefaultBatchingParams() BatchingParams {
	return BatchingParams{
		Replicas:     3,
		Clients:      4,
		OpsPerClient: 2000,
		Window:       256,
		Points: []BatchPoint{
			{Size: 1, Delay: 0}, // unbatched baseline
			{Size: 8, Delay: time.Millisecond},
			{Size: 32, Delay: time.Millisecond},
			{Size: 128, Delay: 2 * time.Millisecond},
		},
		GossipInterval: 2 * time.Millisecond,
		// On a 2-vCPU box the baseline sends 2.0–2.1 frames per op and the
		// batched points 0.10–0.14, a 15–21× cut (25–27× while every frame
		// paid gob type descriptors: the slower baseline sent 3.4 frames
		// per op, its gossip amortized over fewer operations per tick).
		// This gate replaced a ≥2× throughput speedup, which measured the
		// descriptor cost batching amortized more than batching itself.
		MinFrameCut: 10,
	}
}

// SmokeBatchingParams is a fast structural check (CI-friendly): tiny
// workload, no speedup gate.
func SmokeBatchingParams() BatchingParams {
	return BatchingParams{
		Replicas:     2,
		Clients:      2,
		OpsPerClient: 100,
		Window:       32,
		Points: []BatchPoint{
			{Size: 1, Delay: 0},
			{Size: 16, Delay: time.Millisecond},
		},
		GossipInterval: time.Millisecond,
	}
}

// BatchingRow is one sweep point's measurement.
type BatchingRow struct {
	BatchSize   int
	Delay       time.Duration
	Ops         int
	Seconds     float64
	Throughput  float64 // ops/s over the pipelined window
	WireBytes   uint64  // real frame bytes across every transport
	BytesPerOp  float64
	Frames      uint64 // frames handed to sockets across every transport
	FramesPerOp float64
	FinalSum    int64   // strict read-back (must equal Ops)
	P50Ms       float64 // per-op latency percentiles (tracked, not gated)
	P99Ms       float64
}

// BatchingResult is the regenerated table.
type BatchingResult struct {
	Rows     []BatchingRow
	Speedup  float64 // best swept throughput / baseline throughput
	FrameCut float64 // baseline frames/op / fewest swept frames/op
	Err      error   // first execution error (fails Verify)
}

// RunBatching executes the sweep.
func RunBatching(p BatchingParams) BatchingResult {
	var res BatchingResult
	for _, pt := range p.Points {
		row, err := runBatchingPoint(p, pt)
		if err != nil && res.Err == nil {
			res.Err = fmt.Errorf("exp: E12 batch=%d delay=%v: %w", pt.Size, pt.Delay, err)
		}
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) >= 2 && res.Rows[0].Throughput > 0 {
		for _, row := range res.Rows[1:] {
			if s := row.Throughput / res.Rows[0].Throughput; s > res.Speedup {
				res.Speedup = s
			}
			if row.FramesPerOp > 0 {
				res.FrameCut = max(res.FrameCut, res.Rows[0].FramesPerOp/row.FramesPerOp)
			}
		}
	}
	return res
}

func runBatchingPoint(p BatchingParams, pt BatchPoint) (BatchingRow, error) {
	core.RegisterWire()
	row := BatchingRow{BatchSize: pt.Size, Delay: pt.Delay}

	opt := core.DefaultOptions()
	opt.Commute = true
	opt.BatchSize = pt.Size
	opt.BatchDelay = pt.Delay

	// One TCPNet per replica plus one for the clients: every request,
	// response, and gossip message is a real loopback frame.
	nets := make([]*transport.TCPNet, 0, p.Replicas+1)
	addrs := make([]string, p.Replicas)
	closeAll := func() {
		for _, n := range nets {
			n.Close()
		}
	}
	for i := 0; i < p.Replicas; i++ {
		net, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
		if err != nil {
			closeAll()
			return row, err
		}
		nets = append(nets, net)
		addrs[i] = net.Addr().String()
	}
	clusters := make([]*core.Cluster, p.Replicas)
	for i := 0; i < p.Replicas; i++ {
		for j := 0; j < p.Replicas; j++ {
			if j != i {
				nets[i].SetPeer(core.ReplicaNode(label.ReplicaID(j)), addrs[j])
			}
		}
		clusters[i] = core.NewCluster(core.ClusterConfig{
			Replicas:      p.Replicas,
			DataType:      dtype.Counter{},
			Network:       nets[i],
			Options:       opt,
			LocalReplicas: []int{i},
		})
		nets[i].Start()
	}
	feNet, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		closeAll()
		return row, err
	}
	nets = append(nets, feNet)
	for j := 0; j < p.Replicas; j++ {
		feNet.SetPeer(core.ReplicaNode(label.ReplicaID(j)), addrs[j])
	}
	feCluster := core.NewCluster(core.ClusterConfig{
		Replicas:      p.Replicas,
		DataType:      dtype.Counter{},
		Network:       feNet,
		Options:       opt,
		LocalReplicas: []int{},
	})
	feNet.Start()
	defer func() {
		feCluster.Close()
		for _, c := range clusters {
			c.Close()
		}
		closeAll()
	}()
	for _, c := range clusters {
		c.StartLiveGossip(p.GossipInterval)
	}
	feCluster.StartLiveRetransmit(250 * time.Millisecond)
	if pt.Size > 1 {
		flush := pt.Delay
		if flush <= 0 {
			flush = time.Millisecond
		}
		feCluster.StartLiveBatchFlush(flush)
	}

	statsBefore := collectTCPStats(nets)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	allIDs := make([][]ops.ID, p.Clients)
	lat := newLatRecorder()
	start := time.Now()
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fe := feCluster.FrontEnd(fmt.Sprintf("w%d", c))
			window := make(chan struct{}, p.Window)
			var inner sync.WaitGroup
			ids := make([]ops.ID, 0, p.OpsPerClient)
			for i := 0; i < p.OpsPerClient; i++ {
				window <- struct{}{}
				inner.Add(1)
				t0 := time.Now()
				x := fe.Submit(dtype.CtrAdd{N: 1}, nil, false, func(r core.Response) {
					lat.observe(t0)
					if r.Err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = r.Err
						}
						mu.Unlock()
					}
					<-window
					inner.Done()
				})
				ids = append(ids, x.ID)
			}
			inner.Wait()
			allIDs[c] = ids
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	statsAfter := collectTCPStats(nets)
	if firstErr != nil {
		return row, firstErr
	}

	// Strict read-back, constrained after every increment (the paper's
	// client-specified-constraints idiom): proves all pipelined, batched
	// operations were serialized — outside the timed window.
	var prev []ops.ID
	for _, ids := range allIDs {
		prev = append(prev, ids...)
	}
	reader := feCluster.FrontEnd("reader")
	ch := make(chan core.Response, 1)
	reader.Submit(dtype.CtrRead{}, prev, true, func(r core.Response) { ch <- r })
	reader.Flush()
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	var read core.Response
	select {
	case read = <-ch:
	case <-deadline.C:
		return row, fmt.Errorf("strict read-back timed out")
	}
	if read.Err != nil {
		return row, fmt.Errorf("strict read-back: %w", read.Err)
	}
	total := p.Clients * p.OpsPerClient
	sum, _ := read.Value.(int64)
	if sum != int64(total) {
		return row, fmt.Errorf("strict read-back sum = %d, want %d", sum, total)
	}

	row.Ops = total
	row.Seconds = elapsed.Seconds()
	row.Throughput = float64(total) / elapsed.Seconds()
	row.WireBytes = statsAfter.Bytes - statsBefore.Bytes
	row.BytesPerOp = float64(row.WireBytes) / float64(total)
	row.Frames = statsAfter.Sent - statsBefore.Sent
	row.FramesPerOp = float64(row.Frames) / float64(total)
	row.FinalSum = sum
	q := lat.quantiles()
	row.P50Ms, row.P99Ms = latMs(q.P50), latMs(q.P99)
	return row, nil
}

// collectTCPStats sums the transports' counters.
func collectTCPStats(nets []*transport.TCPNet) transport.Stats {
	var out transport.Stats
	for _, n := range nets {
		s := n.Stats()
		out.Sent += s.Sent
		out.Bytes += s.Bytes
		out.Flushes += s.Flushes
	}
	return out
}

// Table renders the sweep. Wall-clock numbers are machine-dependent (like
// E10/E11); the bytes/op and frames/op columns are structural.
func (r BatchingResult) Table() string {
	t := stats.NewTable("batch", "delay", "ops", "seconds", "ops/s", "bytes/op", "frames/op", "p50 ms", "p99 ms")
	for _, row := range r.Rows {
		t.AddRow(row.BatchSize, row.Delay.String(), row.Ops, row.Seconds,
			row.Throughput, row.BytesPerOp, row.FramesPerOp, row.P50Ms, row.P99Ms)
	}
	return t.String() + fmt.Sprintf("best speedup over unbatched baseline = %.2f×, frames/op cut = %.1f×\n", r.Speedup, r.FrameCut)
}

// Verify checks the batched-hot-path claims: every point completed and read
// back exactly its writes; batching never INCREASES bytes/op against the
// baseline at the largest batch size; and — when a threshold is configured
// — some swept point sends at most 1/MinFrameCut of the baseline's frames
// per op.
func (r BatchingResult) Verify(p BatchingParams) error {
	if r.Err != nil {
		return r.Err
	}
	if len(r.Rows) < 2 {
		return fmt.Errorf("exp: E12 needs a baseline and at least one batched point")
	}
	for _, row := range r.Rows {
		if row.Throughput <= 0 {
			return fmt.Errorf("exp: E12 batch=%d: no throughput", row.BatchSize)
		}
		if row.FinalSum != int64(row.Ops) {
			return fmt.Errorf("exp: E12 batch=%d: read back %d of %d ops", row.BatchSize, row.FinalSum, row.Ops)
		}
	}
	base, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.BytesPerOp > base.BytesPerOp {
		return fmt.Errorf("exp: E12 bytes/op grew under batching: %.0f (batch=%d) vs %.0f (unbatched)",
			last.BytesPerOp, last.BatchSize, base.BytesPerOp)
	}
	if p.MinFrameCut > 0 && r.FrameCut < p.MinFrameCut {
		return fmt.Errorf("exp: E12 batching cut frames/op %.1f×, below the required %.1f×", r.FrameCut, p.MinFrameCut)
	}
	return nil
}
