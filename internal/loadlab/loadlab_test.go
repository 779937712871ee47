package loadlab

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/transport"
)

// cellConfig is one cell of the hostile-network matrix. All workload
// randomness derives from Seed (the FaultNet shares it), so a failing
// cell's String() is its reproduction recipe.
type cellConfig struct {
	Seed     int64
	Profile  string
	Shards   int
	GrowTo   int // > Shards resizes mid-run; 0/== disables
	Replicas int
	Sessions int
	Rate     float64
	Duration time.Duration
	Objects  int // per session
}

func (c cellConfig) String() string {
	return fmt.Sprintf("seed=%d profile=%s shards=%d grow=%d replicas=%d sessions=%d rate=%.0f dur=%v objects=%d",
		c.Seed, c.Profile, c.Shards, c.GrowTo, c.Replicas, c.Sessions, c.Rate, c.Duration, c.Objects)
}

// runCell drives one cell end to end and returns the first violated
// property (nil when all hold):
//
//   - the mid-run resize (when configured) completes without error,
//   - liveness: every offered operation is answered after healing,
//   - no operation errors,
//   - convergence: every shard settles on one label order,
//   - exact strict read-back: each object's counter equals exactly its
//     acknowledged adds — no loss, no double-apply,
//   - zero answered-then-lost: every answered op id appears in a shard's
//     converged order,
//   - no replica faults,
//   - every replica's group-commit journal took records without a write
//     or sync error,
//   - non-clean profiles actually injected faults (the cell would
//     otherwise prove nothing).
//
// Each replica, of the first shards and of those the resize adds, keeps a
// FileStableStore journal in a fresh directory under dir.
func runCell(cfg cellConfig, dir string) (err error) {
	maxShards := cfg.Shards
	if cfg.GrowTo > maxShards {
		maxShards = cfg.GrowTo
	}
	prof, ok := ProfileByName(cfg.Profile, maxShards, cfg.Replicas)
	if !ok {
		return fmt.Errorf("unknown profile %q", cfg.Profile)
	}
	journals, err := os.MkdirTemp(dir, "cell-*")
	if err != nil {
		return err
	}
	// StoreFor also runs on the resize's goroutine for the grown shards.
	var (
		storeMu  sync.Mutex
		stores   []*core.FileStableStore
		storeErr error
	)
	storeFor := func(shard, replica int) core.StableStore {
		st, err := core.OpenFileStableStore(filepath.Join(journals, fmt.Sprintf("s%d-r%d.journal", shard, replica)))
		storeMu.Lock()
		defer storeMu.Unlock()
		if err != nil {
			storeErr = err
			return nil
		}
		stores = append(stores, st)
		return st
	}
	inner := transport.NewLiveNet()
	fnet := transport.NewFaultNet(inner, prof.NetConfig(cfg.Seed))
	ks := core.NewKeyspace(core.KeyspaceConfig{
		Shards:   cfg.Shards,
		Replicas: cfg.Replicas,
		DataType: dtype.Counter{},
		Network:  fnet,
		// The default options with batching: gossip resends what FaultNet's
		// loss, jitter and reordering took.
		Options:  core.Options{Memoize: true, Prune: true, BatchSize: 8},
		StoreFor: storeFor,
	})
	defer func() {
		ks.Close()
		fnet.Close()
		inner.Close()
		storeMu.Lock()
		defer storeMu.Unlock()
		for _, st := range stores {
			if cerr := st.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("closing a journal: %w", cerr)
			}
		}
	}()
	ks.StartLiveGossip(2 * time.Millisecond)
	ks.StartLiveRetransmit(25 * time.Millisecond)
	ks.StartLiveBatchFlush(time.Millisecond)
	fnet.Start()

	// Mid-run online resize: fires halfway through the dispatch window,
	// racing the profile's faults. The driver's rounds retry lost control
	// messages, so it must complete even on lossy/flapping networks.
	var (
		resizeWG  sync.WaitGroup
		resizeErr error
	)
	if cfg.GrowTo > cfg.Shards {
		resizeWG.Add(1)
		time.AfterFunc(cfg.Duration/2, func() {
			defer resizeWG.Done()
			_, resizeErr = ks.Resize(cfg.GrowTo)
		})
	}

	rep := Run(ks, Config{
		Seed:              cfg.Seed,
		Sessions:          cfg.Sessions,
		Rate:              cfg.Rate,
		Duration:          cfg.Duration,
		ObjectsPerSession: cfg.Objects,
		BeforeDrain:       fnet.Heal,
		DrainTimeout:      30 * time.Second,
	})
	resizeWG.Wait()
	if resizeErr != nil {
		return fmt.Errorf("mid-run resize: %w", resizeErr)
	}
	if cfg.GrowTo > cfg.Shards && ks.NumShards() != cfg.GrowTo {
		return fmt.Errorf("resize left %d shards, want %d", ks.NumShards(), cfg.GrowTo)
	}
	if rep.Unanswered > 0 {
		return fmt.Errorf("liveness: %d of %d operations never answered", rep.Unanswered, rep.Offered)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d operations answered with errors", rep.Errors)
	}
	if err := WaitConverged(ks, 20*time.Second); err != nil {
		return err
	}
	if err := ReadBack(ks, rep, 30*time.Second); err != nil {
		return err
	}
	if err := WaitConverged(ks, 20*time.Second); err != nil {
		return fmt.Errorf("after read-back: %w", err)
	}
	if err := AnsweredInOrder(ks, rep); err != nil {
		return err
	}
	if faults := ks.Faults(); len(faults) > 0 {
		return fmt.Errorf("replica faults under honest chaos: %v", faults)
	}
	// The resize has returned, so no StoreFor call is still running.
	if storeErr != nil {
		return fmt.Errorf("opening a journal: %w", storeErr)
	}
	if want := cfg.Replicas * maxShards; len(stores) != want {
		return fmt.Errorf("%d replicas kept a journal, want %d", len(stores), want)
	}
	var journaled uint64
	for _, st := range stores {
		if err := st.Err(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		_, records := st.Syncs()
		journaled += records
	}
	if journaled == 0 {
		return fmt.Errorf("no replica journaled a record")
	}
	st := fnet.Stats()
	switch cfg.Profile {
	case "wan":
		if st.Delayed == 0 {
			return fmt.Errorf("wan profile delayed nothing: %+v", st)
		}
	case "lossy":
		if st.LossDropped == 0 {
			return fmt.Errorf("lossy profile dropped nothing: %+v", st)
		}
	case "flap", "cut":
		if st.PartitionDropped == 0 {
			return fmt.Errorf("%s profile partition-dropped nothing: %+v", cfg.Profile, st)
		}
	}
	return nil
}

// shrinkCell reduces a failing cell while it keeps failing — no resize,
// lower rate, shorter window, fewer sessions — and returns the smallest
// still-failing configuration with its error.
func shrinkCell(cfg cellConfig, dir string, orig error) (cellConfig, error) {
	minCfg, minErr := cfg, orig
	try := func(c cellConfig) bool {
		if err := runCell(c, dir); err != nil {
			minCfg, minErr = c, err
			return true
		}
		return false
	}
	if c := minCfg; c.GrowTo > c.Shards {
		c.GrowTo = 0
		try(c)
	}
	for minCfg.Rate > 50 {
		c := minCfg
		c.Rate /= 2
		if !try(c) {
			break
		}
	}
	if c := minCfg; c.Duration > 200*time.Millisecond {
		c.Duration /= 2
		try(c)
	}
	for minCfg.Sessions > 4 {
		c := minCfg
		c.Sessions /= 2
		if !try(c) {
			break
		}
	}
	return minCfg, minErr
}

// chaosSeeds returns the pinned seed set, overridable for broader sweeps
// via ESDS_CHAOS_SEEDS (comma-separated integers) — the same convention
// as the internal/core chaos matrix and `make loadlab`.
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("ESDS_CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("ESDS_CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// TestLoadLabHostileMatrix is the full-stack chaos matrix: open-loop load
// × the five network profiles × pinned seeds, over a batched, pruning,
// snapshotting keyspace that resizes mid-run. Every cell must keep the
// paper's promises — convergence, exact read-back, zero answered-then-
// lost — no matter what the network did. Failures shrink to a minimal
// reproduction before reporting.
func TestLoadLabHostileMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("load lab matrix is wall-clock heavy; run via make loadlab")
	}
	for _, profile := range []string{"clean", "wan", "lossy", "flap", "cut"} {
		for _, seed := range chaosSeeds(t) {
			cfg := cellConfig{
				Seed:     seed,
				Profile:  profile,
				Shards:   2,
				GrowTo:   3,
				Replicas: 3,
				Sessions: 32,
				Rate:     300,
				Duration: 600 * time.Millisecond,
				Objects:  2,
			}
			t.Run(fmt.Sprintf("%s/seed=%d", profile, seed), func(t *testing.T) {
				dir := t.TempDir()
				if err := runCell(cfg, dir); err != nil {
					minCfg, minErr := shrinkCell(cfg, dir, err)
					t.Fatalf("cell {%v} failed: %v\nminimal failing reproduction: {%v}: %v",
						cfg, err, minCfg, minErr)
				}
			})
		}
	}
}

// TestLoadLabGeneratorBasics pins the generator's accounting on a tiny
// clean-profile run (fast enough for tier-1): offered = answered after a
// drain, the histogram holds one sample per answered op, and the audit
// maps agree with the read-back.
func TestLoadLabGeneratorBasics(t *testing.T) {
	inner := transport.NewLiveNet()
	fnet := transport.NewFaultNet(inner, transport.FaultNetConfig{Seed: 1})
	ks := core.NewKeyspace(core.KeyspaceConfig{
		Shards:   2,
		Replicas: 3,
		DataType: dtype.Counter{},
		Network:  fnet,
		Options:  core.Options{Memoize: true, Prune: true, BatchSize: 8},
	})
	defer func() {
		ks.Close()
		fnet.Close()
		inner.Close()
	}()
	ks.StartLiveGossip(2 * time.Millisecond)
	ks.StartLiveRetransmit(25 * time.Millisecond)
	ks.StartLiveBatchFlush(time.Millisecond)

	rep := Run(ks, Config{
		Seed:              7,
		Sessions:          8,
		Rate:              400,
		Duration:          250 * time.Millisecond,
		ObjectsPerSession: 2,
	})
	if rep.Offered == 0 {
		t.Fatal("open-loop generator offered no operations")
	}
	if rep.Unanswered != 0 || rep.Errors != 0 {
		t.Fatalf("clean run left unanswered=%d errors=%d of %d", rep.Unanswered, rep.Errors, rep.Offered)
	}
	if got := int(rep.Lat.Count()); got != rep.Answered {
		t.Fatalf("histogram has %d samples, answered %d", got, rep.Answered)
	}
	if len(rep.AnsweredIDs) != rep.Answered {
		t.Fatalf("answered id list has %d entries, answered %d", len(rep.AnsweredIDs), rep.Answered)
	}
	var adds int64
	for _, a := range rep.objects {
		adds += a.Sum
		if len(a.AddIDs) != int(a.Sum) {
			t.Fatalf("audit ids (%d) disagree with sum (%d)", len(a.AddIDs), a.Sum)
		}
	}
	if adds == 0 || adds > int64(rep.Answered) {
		t.Fatalf("audited adds = %d of %d answered", adds, rep.Answered)
	}
	if err := WaitConverged(ks, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ReadBack(ks, rep, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := WaitConverged(ks, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := AnsweredInOrder(ks, rep); err != nil {
		t.Fatal(err)
	}
}
