package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/loadlab"
	"esds/internal/stats"
	"esds/internal/transport"
)

// E15: hostile-network load lab (DESIGN.md §11). Every prior experiment
// drives the system closed-loop — clients wait for answers before asking
// again — which hides queueing collapse: when the system slows, the
// offered load politely slows with it. E15 is the open-loop counterpart:
// loadlab sessions fire at a configured Poisson arrival rate regardless
// of completion, against the FULL stack (batching, pruning, snapshots, a
// mid-run Resize, durable file stores), through a transport.FaultNet
// realizing one of the standard network profiles (clean / wan / lossy /
// flap). The claim under test is the latency TAIL, not the mean: the
// gate pins p99 under the clean and WAN profiles, while every profile —
// including 30% loss and flapping asymmetric partitions — must still
// answer every operation, read back exactly, and keep every answered op
// in a converged order.

// LoadLabParams configures the offered-load × network-profile sweep.
type LoadLabParams struct {
	// Shards is the starting shard count; GrowTo > Shards triggers an
	// online Resize halfway through each point's dispatch window.
	Shards int
	GrowTo int
	// Replicas per shard.
	Replicas int
	// Sessions is the number of simulated open-loop client sessions.
	Sessions int
	// Rates are the offered arrival rates (total ops/s) swept per profile.
	Rates []float64
	// Profiles are loadlab profile names (clean/wan/lossy/flap).
	Profiles []string
	// Duration is the dispatch window per point.
	Duration time.Duration
	// ObjectsPerSession is each session's private object count.
	ObjectsPerSession int
	// GossipInterval / RetransmitInterval / BatchFlushInterval drive the
	// keyspace's live tickers.
	GossipInterval     time.Duration
	RetransmitInterval time.Duration
	BatchFlushInterval time.Duration
	// Seed roots both the workload and the FaultNet schedule; each sweep
	// point perturbs it deterministically.
	Seed int64
	// FileStores, when set, gives every replica a group-commit
	// FileStableStore journal in a scratch directory — the durable write
	// path under hostile networks, not just loopback TCP.
	FileStores bool
	// DrainTimeout bounds the post-window wait for in-flight operations.
	DrainTimeout time.Duration
	// MaxP99 gates the p99 latency per profile name; profiles absent from
	// the map (or a nil map) are tracked but not gated. Lossy and flapping
	// profiles have unbounded tails by construction (retransmission
	// timers), so the defaults gate only clean and wan.
	MaxP99 map[string]time.Duration
}

// DefaultLoadLabParams is the headline configuration: 256 sessions
// sweeping two offered rates across all four network profiles over a
// 2→3-shard resizing, durably journaled keyspace. The p99 gates bound
// the clean profile at 500ms and the WAN profile at 1.5s — generous
// against healthy runs (clean p99 is typically a few ms) but tight
// enough to fail on queueing collapse or a stalled batch flusher.
func DefaultLoadLabParams() LoadLabParams {
	return LoadLabParams{
		Shards:             2,
		GrowTo:             3,
		Replicas:           3,
		Sessions:           256,
		Rates:              []float64{150, 300},
		Profiles:           []string{"clean", "wan", "lossy", "flap"},
		Duration:           time.Second,
		ObjectsPerSession:  2,
		GossipInterval:     2 * time.Millisecond,
		RetransmitInterval: 25 * time.Millisecond,
		BatchFlushInterval: time.Millisecond,
		Seed:               42,
		FileStores:         true,
		DrainTimeout:       30 * time.Second,
		MaxP99: map[string]time.Duration{
			"clean": 500 * time.Millisecond,
			"wan":   1500 * time.Millisecond,
		},
	}
}

// SmokeLoadLabParams is a fast structural check (CI-friendly): tiny
// workload, clean + lossy only, no resize, no file stores, no gates.
func SmokeLoadLabParams() LoadLabParams {
	return LoadLabParams{
		Shards:             2,
		Replicas:           3,
		Sessions:           8,
		Rates:              []float64{200},
		Profiles:           []string{"clean", "lossy"},
		Duration:           250 * time.Millisecond,
		ObjectsPerSession:  2,
		GossipInterval:     2 * time.Millisecond,
		RetransmitInterval: 25 * time.Millisecond,
		BatchFlushInterval: time.Millisecond,
		Seed:               7,
		DrainTimeout:       20 * time.Second,
	}
}

// LoadLabRow is one (profile, rate) sweep point.
type LoadLabRow struct {
	Profile   string
	Rate      float64 // offered arrival rate, ops/s
	Offered   int
	Answered  int
	OpsPerSec float64 // answered / total wall time (window + drain)
	P50Ms     float64
	P99Ms     float64
	P999Ms    float64
	MaxMs     float64
}

// LoadLabResult is the regenerated table.
type LoadLabResult struct {
	Rows []LoadLabRow
	Err  error // first execution error (fails Verify)
}

// RunLoadLab executes the sweep: every profile at every offered rate.
func RunLoadLab(p LoadLabParams) LoadLabResult {
	var res LoadLabResult
	for i, prof := range p.Profiles {
		for j, rate := range p.Rates {
			seed := p.Seed + int64(i*len(p.Rates)+j)
			row, err := runLoadLabPoint(p, prof, rate, seed)
			if err != nil && res.Err == nil {
				res.Err = fmt.Errorf("exp: E15 %s@%.0f: %w", prof, rate, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// runLoadLabPoint drives one (profile, rate) point end to end: build the
// keyspace behind a FaultNet, run the open-loop window with a mid-run
// resize, heal, drain, then hold the point to the full audit — liveness,
// convergence, exact strict read-back, zero answered-then-lost, no
// replica faults. The latency histogram feeds the row's percentiles.
func runLoadLabPoint(p LoadLabParams, profName string, rate float64, seed int64) (LoadLabRow, error) {
	row := LoadLabRow{Profile: profName, Rate: rate}
	maxShards := p.Shards
	if p.GrowTo > maxShards {
		maxShards = p.GrowTo
	}
	prof, ok := loadlab.ProfileByName(profName, maxShards, p.Replicas)
	if !ok {
		return row, fmt.Errorf("unknown profile %q", profName)
	}

	inner := transport.NewLiveNet()
	fnet := transport.NewFaultNet(inner, prof.NetConfig(seed))

	// Durable journals: StoreFor is called lazily — for grown shards from
	// the resize goroutine — so the bookkeeping is mutex-guarded.
	var (
		storeMu  sync.Mutex
		stores   []*core.FileStableStore
		storeFor func(shard, replica int) core.StableStore
	)
	if p.FileStores {
		dir, err := os.MkdirTemp("", "esds-e15-*")
		if err != nil {
			fnet.Close()
			inner.Close()
			return row, err
		}
		defer os.RemoveAll(dir)
		storeFor = func(shard, replica int) core.StableStore {
			st, err := core.OpenFileStableStore(filepath.Join(dir, fmt.Sprintf("s%d-r%d.labels", shard, replica)))
			if err != nil {
				return nil
			}
			storeMu.Lock()
			stores = append(stores, st)
			storeMu.Unlock()
			return st
		}
	}

	ks := core.NewKeyspace(core.KeyspaceConfig{
		Shards:   p.Shards,
		Replicas: p.Replicas,
		DataType: dtype.Counter{},
		Network:  fnet,
		// Full gossip: FaultNet's loss and reordering break the FIFO
		// prerequisite of IncrementalGossip; everything else stays on.
		Options:  core.Options{Memoize: true, Prune: true, BatchSize: 8},
		StoreFor: storeFor,
	})
	defer func() {
		ks.Close()
		fnet.Close()
		inner.Close()
		storeMu.Lock()
		for _, st := range stores {
			st.Close()
		}
		storeMu.Unlock()
	}()
	ks.StartLiveGossip(p.GossipInterval)
	ks.StartLiveRetransmit(p.RetransmitInterval)
	ks.StartLiveBatchFlush(p.BatchFlushInterval)
	fnet.Start()

	var (
		resizeWG  sync.WaitGroup
		resizeErr error
	)
	if p.GrowTo > p.Shards {
		resizeWG.Add(1)
		time.AfterFunc(p.Duration/2, func() {
			defer resizeWG.Done()
			_, resizeErr = ks.Resize(p.GrowTo)
		})
	}

	start := time.Now()
	rep := loadlab.Run(ks, loadlab.Config{
		Seed:              seed,
		Sessions:          p.Sessions,
		Rate:              rate,
		Duration:          p.Duration,
		ObjectsPerSession: p.ObjectsPerSession,
		BeforeDrain:       fnet.Heal,
		DrainTimeout:      p.DrainTimeout,
	})
	resizeWG.Wait()
	total := time.Since(start)
	if resizeErr != nil {
		return row, fmt.Errorf("mid-run resize: %w", resizeErr)
	}
	if rep.Unanswered > 0 {
		return row, fmt.Errorf("liveness: %d of %d operations never answered", rep.Unanswered, rep.Offered)
	}
	if rep.Errors > 0 {
		return row, fmt.Errorf("%d operations answered with errors", rep.Errors)
	}
	if err := loadlab.WaitConverged(ks, 20*time.Second); err != nil {
		return row, err
	}
	if err := loadlab.ReadBack(ks, rep, 30*time.Second); err != nil {
		return row, err
	}
	if err := loadlab.WaitConverged(ks, 20*time.Second); err != nil {
		return row, fmt.Errorf("after read-back: %w", err)
	}
	if err := loadlab.AnsweredInOrder(ks, rep); err != nil {
		return row, err
	}
	if faults := ks.Faults(); len(faults) > 0 {
		return row, fmt.Errorf("replica faults: %v", faults)
	}

	q := rep.Lat.Quantiles()
	row.Offered = rep.Offered
	row.Answered = rep.Answered
	row.OpsPerSec = float64(rep.Answered) / total.Seconds()
	row.P50Ms = float64(q.P50) / 1e6
	row.P99Ms = float64(q.P99) / 1e6
	row.P999Ms = float64(q.P999) / 1e6
	row.MaxMs = float64(q.Max) / 1e6
	return row, nil
}

// Table renders the sweep. Absolute latency is machine-dependent; the
// structural claims are liveness (offered == answered) and the gated
// p99 columns for the clean and wan profiles.
func (r LoadLabResult) Table() string {
	t := stats.NewTable("profile", "rate", "offered", "answered", "ops/s", "p50 ms", "p99 ms", "p99.9 ms", "max ms")
	for _, row := range r.Rows {
		t.AddRow(row.Profile, row.Rate, row.Offered, row.Answered,
			row.OpsPerSec, row.P50Ms, row.P99Ms, row.P999Ms, row.MaxMs)
	}
	return t.String()
}

// Verify checks the load lab's claims: every point ran its full audit
// (runLoadLabPoint already folds liveness, read-back, and ordering
// failures into Err), answered everything it offered, and — where a
// gate is configured — kept p99 under the profile's bound.
func (r LoadLabResult) Verify(p LoadLabParams) error {
	if r.Err != nil {
		return r.Err
	}
	want := len(p.Profiles) * len(p.Rates)
	if len(r.Rows) != want || want == 0 {
		return fmt.Errorf("exp: E15 has %d sweep points, want %d", len(r.Rows), want)
	}
	for _, row := range r.Rows {
		if row.Offered == 0 || row.Answered != row.Offered {
			return fmt.Errorf("exp: E15 %s@%.0f answered %d of %d offered",
				row.Profile, row.Rate, row.Answered, row.Offered)
		}
		if row.OpsPerSec <= 0 {
			return fmt.Errorf("exp: E15 %s@%.0f has no throughput", row.Profile, row.Rate)
		}
		if gate, ok := p.MaxP99[row.Profile]; ok {
			gateMs := float64(gate) / 1e6
			if row.P99Ms > gateMs {
				return fmt.Errorf("exp: E15 %s@%.0f p99 = %.1fms exceeds the %.0fms gate — latency tail collapsed under open-loop load",
					row.Profile, row.Rate, row.P99Ms, gateMs)
			}
		}
	}
	return nil
}
