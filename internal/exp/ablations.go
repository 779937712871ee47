package exp

import (
	"fmt"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/sim"
	"esds/internal/stats"
)

// AblationParams is shared by E6–E8: a fixed log workload replayed under
// two option sets.
type AblationParams struct {
	Seed            int64
	Replicas        int
	Ops             int
	StrictEvery     int // every k-th op is strict (0 = none)
	RequestInterval sim.Duration
	Drain           sim.Duration // post-workload settle time
}

// DefaultAblationParams drives 200 ops at 2ms spacing.
func DefaultAblationParams() AblationParams {
	return AblationParams{
		Seed:            6,
		Replicas:        3,
		Ops:             200,
		StrictEvery:     10,
		RequestInterval: 2 * sim.Millisecond,
		Drain:           1 * sim.Second,
	}
}

// ablationRun holds the measurements of one option set. GossipBytes is
// the share of NetBytes that gossip frames took.
type ablationRun struct {
	Metrics     core.ReplicaMetrics
	NetBytes    uint64
	NetMsgs     uint64
	GossipBytes uint64
	MeanLatency float64
	Responses   map[ops.ID]string
}

// runAblation replays the workload under one option set; setup, when set,
// may schedule more work on the environment before the workload starts.
func runAblation(p AblationParams, opt Options3, setup func(*Env)) ablationRun {
	env := NewEnv(EnvConfig{
		Seed:     p.Seed,
		Replicas: p.Replicas,
		DataType: dtype.Log{},
		Options:  opt.Options,
	})
	if setup != nil {
		setup(env)
	}
	col := &Collector{}
	for i := 0; i < p.Ops; i++ {
		i := i
		client := fmt.Sprintf("c%d", i%4)
		var prev []ops.ID
		if opt.ChainPerClient {
			// SafeUsers discipline: chain each client's ops so every
			// non-commuting pair (log appends) is client-ordered.
			if last, ok := env.Cluster.FrontEnd(client).LastID(); ok {
				prev = []ops.ID{last}
			}
		}
		strict := p.StrictEvery > 0 && i%p.StrictEvery == 0
		var op dtype.Operator = dtype.LogAppend{Entry: fmt.Sprintf("e%d", i)}
		if i%7 == 6 {
			op = dtype.LogLen{}
		}
		env.S.ScheduleAt(sim.Time(sim.Duration(i)*p.RequestInterval), func() {
			col.Submit(env, client, op, prev, strict)
		})
	}
	env.S.RunUntil(sim.Time(sim.Duration(p.Ops)*p.RequestInterval + p.Drain))
	env.Cluster.Close()

	responses := make(map[ops.ID]string, len(col.All))
	for _, o := range col.All {
		if o.Done {
			responses[o.X.ID] = fmt.Sprint(o.Value)
		}
	}
	lat := stats.Summarize(col.Latencies(nil))
	st := env.Net.Stats()
	return ablationRun{
		Metrics:     env.Cluster.TotalMetrics(),
		NetBytes:    st.Bytes,
		NetMsgs:     st.Sent,
		GossipBytes: env.GossipBytes,
		MeanLatency: lat.Mean,
		Responses:   responses,
	}
}

// Options3 extends core.Options with the client discipline used by the
// commute ablation.
type Options3 struct {
	core.Options
	ChainPerClient bool
}

// E6Result compares response-computation work with and without memoization
// (§10.1).
type E6Result struct {
	Base ablationRun
	Memo ablationRun
}

// RunE6 executes the ablation.
func RunE6(p AblationParams) E6Result {
	return E6Result{
		Base: runAblation(p, Options3{Options: core.Options{}}, nil),
		Memo: runAblation(p, Options3{Options: core.Options{Memoize: true, Prune: true}}, nil),
	}
}

// Table renders the comparison.
func (r E6Result) Table() string {
	t := stats.NewTable("variant", "applies/response total", "applies memoize", "retained descriptors", "mean latency ms")
	t.AddRow("no memoization", r.Base.Metrics.AppliesForResponse, r.Base.Metrics.AppliesForMemoize,
		r.Base.Metrics.RetainedOps, r.Base.MeanLatency)
	t.AddRow("memoized (Fig. 10)", r.Memo.Metrics.AppliesForResponse, r.Memo.Metrics.AppliesForMemoize,
		r.Memo.Metrics.RetainedOps, r.Memo.MeanLatency)
	return t.String()
}

// Verify asserts the §10.1 claim: identical responses, far less
// recomputation, less memory retained.
func (r E6Result) Verify() error {
	if err := sameResponses(r.Base.Responses, r.Memo.Responses); err != nil {
		return fmt.Errorf("exp: E6 %w", err)
	}
	if r.Memo.Metrics.AppliesForResponse*2 >= r.Base.Metrics.AppliesForResponse {
		return fmt.Errorf("exp: E6 memoization saved too little: %d vs %d applies",
			r.Memo.Metrics.AppliesForResponse, r.Base.Metrics.AppliesForResponse)
	}
	if r.Memo.Metrics.RetainedOps >= r.Base.Metrics.RetainedOps {
		return fmt.Errorf("exp: E6 pruning retained %d ≥ %d descriptors",
			r.Memo.Metrics.RetainedOps, r.Base.Metrics.RetainedOps)
	}
	return nil
}

// E7Result compares the base algorithm with commute mode (§10.3) on a
// SafeUsers workload.
type E7Result struct {
	Base    ablationRun
	Commute ablationRun
}

// RunE7 executes the ablation. Both runs chain each client's ops (the
// SafeUsers discipline that makes commute mode sound); only the replica
// option differs.
func RunE7(p AblationParams) E7Result {
	return E7Result{
		Base:    runAblation(p, Options3{Options: core.Options{Memoize: true}, ChainPerClient: true}, nil),
		Commute: runAblation(p, Options3{Options: core.Options{Memoize: true, Commute: true}, ChainPerClient: true}, nil),
	}
}

// Table renders the comparison.
func (r E7Result) Table() string {
	t := stats.NewTable("variant", "applies/response", "applies cs_r", "mean latency ms")
	t.AddRow("base (memo + suffix cache)", r.Base.Metrics.AppliesForResponse,
		r.Base.Metrics.AppliesForCurrentState, r.Base.MeanLatency)
	t.AddRow("commute (Fig. 11)", r.Commute.Metrics.AppliesForResponse,
		r.Commute.Metrics.AppliesForCurrentState, r.Commute.MeanLatency)
	return t.String()
}

// Verify asserts the §10.3 claim: same responses, zero response-time
// recomputation in commute mode.
func (r E7Result) Verify() error {
	if err := sameResponses(r.Base.Responses, r.Commute.Responses); err != nil {
		return fmt.Errorf("exp: E7 %w", err)
	}
	if r.Commute.Metrics.AppliesForResponse != 0 {
		return fmt.Errorf("exp: E7 commute mode recomputed %d applies", r.Commute.Metrics.AppliesForResponse)
	}
	if r.Commute.Metrics.AppliesForCurrentState == 0 {
		return fmt.Errorf("exp: E7 commute mode never maintained cs_r")
	}
	return nil
}

// E8Result compares the gossip replicas run, the §10.4 deltas, with the
// full-state gossip of Fig. 7 as written. Both rows come from one run:
// Full is the run's traffic with its gossip frames replaced by the
// full-state frame every replica would have sent every peer at each
// gossip tick (core.Replica.FullGossipSize). Full gossip is not run, so
// it has no latency of its own.
type E8Result struct {
	Full ablationRun
	Incr ablationRun
}

// RunE8 executes the ablation.
func RunE8(p AblationParams) E8Result {
	var fullBytes, fullMsgs uint64
	incr := runAblation(p, Options3{Options: core.Options{Memoize: true}}, func(env *Env) {
		rs := env.Cluster.LocalReplicas()
		env.S.Every(env.Timing.G, func() {
			for _, r := range rs {
				fullBytes += uint64(len(rs)-1) * uint64(r.FullGossipSize())
				fullMsgs += uint64(len(rs) - 1)
			}
		})
	})
	full := incr
	full.NetBytes = incr.NetBytes - incr.GossipBytes + fullBytes
	full.NetMsgs = incr.NetMsgs - incr.Metrics.GossipSent + fullMsgs
	full.GossipBytes = fullBytes
	return E8Result{Full: full, Incr: incr}
}

// Table renders the comparison.
func (r E8Result) Table() string {
	t := stats.NewTable("variant", "network bytes", "messages", "mean latency ms")
	t.AddRow("full gossip (priced)", r.Full.NetBytes, r.Full.NetMsgs, "-")
	t.AddRow("incremental (§10.4)", r.Incr.NetBytes, r.Incr.NetMsgs, r.Incr.MeanLatency)
	ratio := float64(r.Incr.NetBytes) / float64(r.Full.NetBytes)
	return t.String() + fmt.Sprintf("bytes ratio incremental/full = %.3f\n", ratio)
}

// Verify asserts the §10.4 claim: materially fewer bytes than full gossip
// would have sent in the same run.
func (r E8Result) Verify() error {
	if len(r.Incr.Responses) == 0 {
		return fmt.Errorf("exp: E8 answered no operation")
	}
	if r.Incr.NetBytes*2 >= r.Full.NetBytes {
		return fmt.Errorf("exp: E8 incremental gossip saved too little: %d vs %d bytes",
			r.Incr.NetBytes, r.Full.NetBytes)
	}
	return nil
}

func sameResponses(a, b map[ops.ID]string) error {
	if len(a) == 0 || len(a) != len(b) {
		return fmt.Errorf("response counts differ: %d vs %d", len(a), len(b))
	}
	for id, v := range a {
		if b[id] != v {
			return fmt.Errorf("response for %v differs: %q vs %q", id, v, b[id])
		}
	}
	return nil
}
