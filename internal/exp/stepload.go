package exp

import (
	"fmt"
	"slices"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/label"
	"esds/internal/loadlab"
	"esds/internal/stats"
	"esds/internal/transport"
)

// E16: batch size and wire compression under step load (DESIGN.md §12).
// E12 showed the batched hot path's sweet spot at one offered load. E16
// steps the open-loop offered rate low → high → low (the loadlab generator
// of E15, minus the hostile network) against the same multi-transport
// deployment as E12 — every replica a TCPNet member, the clients a
// front-end-only member — once per batch size. The front end's batching
// rule (DESIGN.md §8 layer 1) sends the first submission to an idle
// replica at once and coalesces only on a busy one, so one large
// BatchSize should serve every step: it must reach MinRatio × the best
// size's throughput at EVERY load step, no re-tuning allowed between
// steps. The second claim is the wire: the negotiated compact gossip form
// must cut bytes/op by at least MinBytesDrop against the identical run
// whose members never negotiate it. Wire bytes are real frame bytes from
// transport.Stats.

// StepLoadParams configures the step-load experiment.
type StepLoadParams struct {
	// Replicas is the cluster size; each replica runs on its own TCPNet.
	Replicas int
	// Sessions is the number of open-loop client sessions.
	Sessions int
	// Rates is the step-load schedule (total ops/s per step), conventionally
	// low → high → low.
	Rates []float64
	// StepDuration is each step's dispatch window.
	StepDuration time.Duration
	// ObjectsPerSession is each session's private object count.
	ObjectsPerSession int
	// Sizes are the Options.BatchSize candidates, one deployment each.
	Sizes []int
	// Size is the candidate under the MinRatio gate, and the size of the
	// plain-gossip run the wire gate compares against; one of Sizes.
	Size int
	// GossipInterval / RetransmitInterval / BatchFlushInterval drive the
	// live tickers; BatchFlushInterval doubles as Options.BatchDelay.
	GossipInterval     time.Duration
	RetransmitInterval time.Duration
	BatchFlushInterval time.Duration
	// Seed roots each step's workload deterministically.
	Seed int64
	// DrainTimeout bounds the post-window wait for in-flight operations.
	DrainTimeout time.Duration
	// MinRatio gates the Size candidate: at every load step its throughput
	// must reach MinRatio × the best candidate's at that step. ≤ 0 disables
	// the gate (smoke runs).
	MinRatio float64
	// MinBytesDrop gates the compact gossip form: the Size run's bytes/op
	// must be at least this fraction below the identical run on a
	// non-negotiating wire. ≤ 0 disables the gate (smoke runs).
	MinBytesDrop float64
}

// DefaultStepLoadParams is the headline configuration: a 3-replica counter
// keyspace, 64 open-loop sessions stepped 100 → 900 → 100 ops/s, batch
// sizes {8, 32, 128} with 128 under the gate. The rates are deliberately
// modest, like E15's: an open-loop generator PINS the offered rate, so a
// schedule sized for a big machine melts a small CI runner into drain
// timeouts instead of measurements. The low steps are where a large batch
// size would pay latency if the first submission to an idle replica
// waited for a flush tick; the high step is where it must amortize.
func DefaultStepLoadParams() StepLoadParams {
	return StepLoadParams{
		Replicas:           3,
		Sessions:           64,
		Rates:              []float64{100, 900, 100},
		StepDuration:       800 * time.Millisecond,
		ObjectsPerSession:  2,
		Sizes:              []int{8, 32, 128},
		Size:               128,
		GossipInterval:     2 * time.Millisecond,
		RetransmitInterval: 25 * time.Millisecond,
		BatchFlushInterval: time.Millisecond,
		Seed:               16,
		DrainTimeout:       30 * time.Second,
		MinRatio:           0.9,
		// The gate compares whole-run wire bytes per op — requests and
		// responses included — so it moves with everything else in the
		// frames. With GossipMsg down to its five fields the legacy frames
		// shrank (4084 → ~3280 B/op on a 2-vCPU box) while compact held
		// ~2650, a 0.19 drop; one compact frame every tick instead of every
		// other tick reads ~3050–3090 against ~3700–3780 (0.17–0.19). 0.10
		// keeps the codec's edge gated with headroom for run-to-run noise.
		MinBytesDrop: 0.10,
	}
}

// SmokeStepLoadParams is a fast structural check (CI-friendly): tiny
// workload, two batch sizes, no gates.
func SmokeStepLoadParams() StepLoadParams {
	return StepLoadParams{
		Replicas:           2,
		Sessions:           8,
		Rates:              []float64{200, 800},
		StepDuration:       250 * time.Millisecond,
		ObjectsPerSession:  2,
		Sizes:              []int{8, 32},
		Size:               32,
		GossipInterval:     2 * time.Millisecond,
		RetransmitInterval: 25 * time.Millisecond,
		BatchFlushInterval: time.Millisecond,
		Seed:               7,
		DrainTimeout:       20 * time.Second,
	}
}

// stepLoadCandidate is one deployment configuration under test.
type stepLoadCandidate struct {
	Name   string
	Size   int  // Options.BatchSize
	Legacy bool // members behind legacyWire: compact gossip never negotiated
}

// stepLoadCandidates is one compact-gossip candidate per batch size, then
// the plain-gossip twin of the Size candidate.
func stepLoadCandidates(p StepLoadParams) []stepLoadCandidate {
	var out []stepLoadCandidate
	for _, s := range p.Sizes {
		out = append(out, stepLoadCandidate{Name: fmt.Sprintf("batch-%d", s), Size: s})
	}
	return append(out, stepLoadCandidate{Name: fmt.Sprintf("batch-%d-legacy", p.Size), Size: p.Size, Legacy: true})
}

// legacyWire hides a transport's FeatureNegotiator: only the Network
// methods are promoted, so a replica on it neither announces nor sees
// FeatureCompactGossip and sends plain gossip — a pre-codec member.
type legacyWire struct{ transport.Network }

// StepLoadRow is one (candidate, load step) measurement.
type StepLoadRow struct {
	Candidate  string
	Size       int  // Options.BatchSize
	Legacy     bool // plain gossip: compact never negotiated
	Step       int
	Rate       float64
	Offered    int
	Answered   int
	OpsPerSec  float64 // answered / (window + drain)
	P50Ms      float64
	P99Ms      float64
	WireBytes  uint64 // real frame bytes across every transport, this step
	BytesPerOp float64
}

// StepLoadResult is the regenerated table.
type StepLoadResult struct {
	Rows []StepLoadRow
	Err  error // first execution error (fails Verify)
}

// RunStepLoad executes the candidate × step sweep. Each candidate keeps ONE
// deployment across all steps, so no size is re-tuned between steps.
func RunStepLoad(p StepLoadParams) StepLoadResult {
	var res StepLoadResult
	for _, cand := range stepLoadCandidates(p) {
		rows, err := runStepLoadCandidate(p, cand)
		if err != nil && res.Err == nil {
			res.Err = fmt.Errorf("exp: E16 %s: %w", cand.Name, err)
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res
}

// runStepLoadCandidate builds the E12-style multi-transport deployment (one
// TCPNet per replica, a front-end-only client member), drives every load
// step through it in sequence, and closes with the merged strict read-back
// audit — every acknowledged add from every step must read back exactly.
func runStepLoadCandidate(p StepLoadParams, cand stepLoadCandidate) ([]StepLoadRow, error) {
	core.RegisterWire()

	opt := core.DefaultOptions()
	opt.BatchSize = cand.Size
	opt.BatchDelay = p.BatchFlushInterval

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
			return nil, err
		}
		nets = append(nets, net)
		addrs[i] = net.Addr().String()
	}
	members := make([]*core.Keyspace, p.Replicas)
	for i := 0; i < p.Replicas; i++ {
		for j := 0; j < p.Replicas; j++ {
			if j != i {
				nets[i].SetPeer(core.ReplicaNode(label.ReplicaID(j)), addrs[j])
			}
		}
		var net transport.Network = nets[i]
		if cand.Legacy {
			net = legacyWire{net}
		}
		members[i] = core.NewKeyspace(core.KeyspaceConfig{
			Shards:        1,
			Replicas:      p.Replicas,
			DataType:      dtype.Counter{},
			Network:       net,
			Options:       opt,
			LocalReplicas: []int{i},
		})
		nets[i].Start()
	}
	feNet, err := transport.NewTCPNet(transport.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		closeAll()
		return nil, err
	}
	nets = append(nets, feNet)
	for j := 0; j < p.Replicas; j++ {
		feNet.SetPeer(core.ReplicaNode(label.ReplicaID(j)), addrs[j])
	}
	ks := core.NewKeyspace(core.KeyspaceConfig{
		Shards:        1,
		Replicas:      p.Replicas,
		DataType:      dtype.Counter{},
		Network:       feNet,
		Options:       opt,
		LocalReplicas: []int{},
	})
	feNet.Start()
	defer func() {
		ks.Close()
		for _, m := range members {
			m.Close()
		}
		closeAll()
	}()
	for _, m := range members {
		m.StartLiveGossip(p.GossipInterval)
	}
	ks.StartLiveRetransmit(p.RetransmitInterval)
	ks.StartLiveBatchFlush(p.BatchFlushInterval)

	rows := make([]StepLoadRow, 0, len(p.Rates))
	merged := &loadlab.Report{Objects: make(map[string]loadlab.ObjectAudit)}
	for step, rate := range p.Rates {
		before := collectTCPStats(nets)
		start := time.Now()
		rep := loadlab.Run(ks, loadlab.Config{
			Seed:              p.Seed + int64(step),
			Sessions:          p.Sessions,
			Rate:              rate,
			Duration:          p.StepDuration,
			ObjectsPerSession: p.ObjectsPerSession,
			DrainTimeout:      p.DrainTimeout,
		})
		total := time.Since(start)
		after := collectTCPStats(nets)
		if rep.Unanswered > 0 {
			return rows, fmt.Errorf("step %d @%.0f: %d of %d operations never answered",
				step, rate, rep.Unanswered, rep.Offered)
		}
		if rep.Errors > 0 {
			return rows, fmt.Errorf("step %d @%.0f: %d operations answered with errors", step, rate, rep.Errors)
		}
		for obj, a := range rep.Objects {
			m := merged.Objects[obj]
			m.Session = a.Session
			m.AddIDs = append(m.AddIDs, a.AddIDs...)
			m.Sum += a.Sum
			merged.Objects[obj] = m
		}
		q := rep.Lat.Quantiles()
		row := StepLoadRow{
			Candidate: cand.Name,
			Size:      cand.Size,
			Legacy:    cand.Legacy,
			Step:      step,
			Rate:      rate,
			Offered:   rep.Offered,
			Answered:  rep.Answered,
			OpsPerSec: float64(rep.Answered) / total.Seconds(),
			P50Ms:     float64(q.P50) / 1e6,
			P99Ms:     float64(q.P99) / 1e6,
			WireBytes: after.Bytes - before.Bytes,
		}
		if rep.Answered > 0 {
			row.BytesPerOp = float64(row.WireBytes) / float64(rep.Answered)
		}
		rows = append(rows, row)
	}

	// Merged audit: one strict read per object, constrained after every
	// acknowledged add of every step — cross-member convergence proven
	// through the protocol itself (CheckConvergence needs an all-local
	// cluster, which a multi-transport deployment is not).
	if err := loadlab.ReadBack(ks, merged, p.DrainTimeout); err != nil {
		return rows, err
	}
	var compactFrames uint64
	for i, m := range members {
		if faults := m.Faults(); len(faults) > 0 {
			return rows, fmt.Errorf("member %d replica faults: %v", i, faults)
		}
		rm := m.Shard(0).Replica(i).Metrics()
		compactFrames += rm.CompactGossipSent
		if rm.CompactGossipRejects > 0 {
			return rows, fmt.Errorf("member %d rejected %d compact gossip frames", i, rm.CompactGossipRejects)
		}
	}
	// Structural: a negotiating candidate must actually have exercised the
	// compact path, and a legacy one must never have.
	if !cand.Legacy && compactFrames == 0 {
		return rows, fmt.Errorf("compact gossip negotiated but no compact frames were sent")
	}
	if cand.Legacy && compactFrames != 0 {
		return rows, fmt.Errorf("compact gossip never negotiated but %d compact frames were sent", compactFrames)
	}
	return rows, nil
}

// Table renders the sweep. Wall-clock throughput is machine-dependent; the
// structural columns are liveness (offered == answered) and bytes/op.
func (r StepLoadResult) Table() string {
	t := stats.NewTable("candidate", "step", "rate", "offered", "answered", "ops/s", "p50 ms", "p99 ms", "bytes/op")
	for _, row := range r.Rows {
		t.AddRow(row.Candidate, row.Step, row.Rate, row.Offered, row.Answered,
			row.OpsPerSec, row.P50Ms, row.P99Ms, row.BytesPerOp)
	}
	return t.String()
}

// BytesPerOp returns the whole-run bytes/op (all steps pooled) of the
// candidate with batch size size, on plain gossip when legacy.
func (r StepLoadResult) BytesPerOp(size int, legacy bool) (float64, bool) {
	var bytes uint64
	var answered int
	for _, row := range r.Rows {
		if row.Size == size && row.Legacy == legacy {
			bytes += row.WireBytes
			answered += row.Answered
		}
	}
	if answered == 0 {
		return 0, false
	}
	return float64(bytes) / float64(answered), true
}

// Verify checks the step-load claims: every (candidate, step) point
// answered everything it offered and read back exactly (folded into Err by
// the runner); the Size candidate reaches MinRatio × the best candidate's
// throughput at EVERY load step; and the compact gossip form cuts the Size
// run's bytes/op by at least MinBytesDrop against the identical
// legacy-encoded run.
func (r StepLoadResult) Verify(p StepLoadParams) error {
	if r.Err != nil {
		return r.Err
	}
	if !slices.Contains(p.Sizes, p.Size) {
		return fmt.Errorf("exp: E16 gated size %d is not one of the candidates %v", p.Size, p.Sizes)
	}
	want := len(stepLoadCandidates(p)) * len(p.Rates)
	if len(r.Rows) != want || want == 0 {
		return fmt.Errorf("exp: E16 has %d sweep points, want %d", len(r.Rows), want)
	}
	for _, row := range r.Rows {
		if row.Offered == 0 || row.Answered != row.Offered {
			return fmt.Errorf("exp: E16 %s step %d answered %d of %d offered",
				row.Candidate, row.Step, row.Answered, row.Offered)
		}
		if row.OpsPerSec <= 0 || row.WireBytes == 0 {
			return fmt.Errorf("exp: E16 %s step %d recorded no work (%+v)", row.Candidate, row.Step, row)
		}
	}
	if p.MinRatio > 0 {
		for step := range p.Rates {
			best, gated := 0.0, 0.0
			for _, row := range r.Rows {
				if row.Step != step || row.Legacy {
					continue
				}
				best = max(best, row.OpsPerSec)
				if row.Size == p.Size {
					gated = row.OpsPerSec
				}
			}
			if gated < p.MinRatio*best {
				return fmt.Errorf("exp: E16 step %d: batch %d at %.0f ops/s below %.2f× the best size's %.0f ops/s",
					step, p.Size, gated, p.MinRatio, best)
			}
		}
	}
	if p.MinBytesDrop > 0 {
		compact, ok1 := r.BytesPerOp(p.Size, false)
		legacy, ok2 := r.BytesPerOp(p.Size, true)
		if !ok1 || !ok2 {
			return fmt.Errorf("exp: E16 missing batch-%d candidates for the bytes/op comparison", p.Size)
		}
		if compact > (1-p.MinBytesDrop)*legacy {
			return fmt.Errorf("exp: E16 compact gossip bytes/op %.0f not %.0f%% below legacy %.0f — the delta encoding failed its wire-efficiency gate",
				compact, p.MinBytesDrop*100, legacy)
		}
	}
	return nil
}
