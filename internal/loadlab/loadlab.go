// Package loadlab is the hostile-network load laboratory (DESIGN.md §11):
// an OPEN-LOOP traffic generator driving a live keyspace — many client
// sessions firing at a configured arrival rate regardless of completion —
// with per-operation latency recorded into mergeable histograms, plus the
// audit helpers (strict read-back, answered-ops-in-order) the chaos cells
// assert with.
//
// Open vs closed loop: a closed-loop driver waits for responses
// before issuing more work, so when the system slows down the offered
// load politely slows with it and queueing collapse is invisible. The
// open-loop generator models independent users: arrivals follow a seeded
// Poisson process whose rate does not care how the system is doing, so
// saturation shows up where it belongs — in the latency tail.
package loadlab

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/stats"
)

// Config parameterizes one load-lab run. All randomness (arrival gaps,
// session/object/op choices) derives from Seed; wall-clock timing does
// not, so runs are reproducible in workload but not in interleaving.
type Config struct {
	// Seed roots the arrival process and workload choices.
	Seed int64
	// Sessions is the number of simulated client sessions. Each session is
	// a distinct KeyspaceClient owning a private slice of the namespace.
	Sessions int
	// Rate is the total offered arrival rate in operations per second,
	// spread across all sessions by a Poisson process.
	Rate float64
	// Duration is the dispatch window; arrivals stop when it elapses but
	// in-flight operations keep running (open loop: no barrier).
	Duration time.Duration
	// ObjectsPerSession is each session's private object count. Objects are
	// session-owned so the strict read-back can constrain on the owning
	// client's own operation ids (resize-translatable prev references).
	ObjectsPerSession int
	// AddFrac is the fraction of operations that are CtrAdd{1}; the rest
	// are non-strict reads. Defaults to 0.9.
	AddFrac float64
	// BeforeDrain, if non-nil, runs after the dispatch window closes and
	// before Run waits for in-flight operations — where the chaos cells
	// heal their FaultNet so the drain measures liveness, not luck.
	BeforeDrain func()
	// DrainTimeout bounds the wait for in-flight operations after the
	// window (default 30s). Operations still unanswered at the timeout are
	// counted in Report.Unanswered — a liveness failure for the caller to
	// judge.
	DrainTimeout time.Duration
}

// objectAudit is the generator's ground truth for one object: which
// session owns it, which CtrAdds were acknowledged, and their sum. The
// strict read-back must reproduce Sum exactly — less means an
// acknowledged operation was lost, more means one was applied twice.
type objectAudit struct {
	Session string
	AddIDs  []ops.ID
	Sum     int64
}

// Report is the outcome of one run.
type Report struct {
	Offered    int // operations dispatched during the window
	Answered   int // operations acknowledged (successfully)
	Errors     int // operations answered with an error
	Unanswered int // operations still pending at the drain timeout
	Elapsed    time.Duration
	// Lat holds per-op latency in nanoseconds, submission to callback,
	// merged from the per-session histograms. Errored ops are excluded.
	Lat *stats.Hist
	// objects maps every object that received acknowledged adds to its
	// audit record.
	objects map[string]objectAudit
	// AnsweredIDs lists every successfully answered operation id — each
	// must appear in some shard's converged order (AnsweredInOrder).
	AnsweredIDs []ops.ID
}

// session is one simulated client.
type session struct {
	name    string
	client  *core.KeyspaceClient
	objects []string

	mu       sync.Mutex
	hist     *stats.Hist
	answered []ops.ID
	addIDs   map[string][]ops.ID
	addSum   map[string]int64
	errors   int
}

// Run drives the open-loop workload against ks and returns the audit
// report. ks must already be running (gossip, retransmission, and batch
// flush tickers started); Run adds only front-end traffic.
func Run(ks *core.Keyspace, cfg Config) *Report {
	if cfg.Sessions < 1 || cfg.Rate <= 0 || cfg.Duration <= 0 || cfg.ObjectsPerSession < 1 {
		panic(fmt.Sprintf("loadlab: invalid config %+v", cfg))
	}
	addFrac := cfg.AddFrac
	if addFrac == 0 {
		addFrac = 0.9
	}
	drainTimeout := cfg.DrainTimeout
	if drainTimeout == 0 {
		drainTimeout = 30 * time.Second
	}

	sessions := make([]*session, cfg.Sessions)
	for i := range sessions {
		s := &session{
			name:   fmt.Sprintf("sess-%04d", i),
			hist:   stats.NewHist(),
			addIDs: make(map[string][]ops.ID),
			addSum: make(map[string]int64),
		}
		s.client = ks.Client(s.name)
		for j := 0; j < cfg.ObjectsPerSession; j++ {
			s.objects = append(s.objects, fmt.Sprintf("%s/o%d", s.name, j))
		}
		sessions[i] = s
	}

	// Open-loop dispatch: exponential inter-arrival gaps laid on an
	// ABSOLUTE schedule from the start instant. If dispatch falls behind
	// (scheduler hiccup, slow Submit), later arrivals fire immediately
	// rather than stretching the window — the offered rate is the
	// contract, not the achieved one.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var pending sync.WaitGroup
	offered := 0
	start := time.Now()
	var cum time.Duration
	for {
		cum += time.Duration(rng.ExpFloat64() * float64(time.Second) / cfg.Rate)
		if cum >= cfg.Duration {
			break
		}
		if d := time.Until(start.Add(cum)); d > 0 {
			time.Sleep(d)
		}
		s := sessions[rng.Intn(len(sessions))]
		obj := s.objects[rng.Intn(len(s.objects))]
		isAdd := rng.Float64() < addFrac
		var op dtype.Operator = dtype.CtrRead{}
		if isAdd {
			op = dtype.CtrAdd{N: 1}
		}
		offered++
		pending.Add(1)
		t0 := time.Now()
		s.client.Submit(ks.WrapOp(obj, op), nil, false, func(r core.Response) {
			lat := time.Since(t0).Nanoseconds()
			s.mu.Lock()
			if r.Err != nil {
				s.errors++
			} else {
				s.hist.Record(lat)
				s.answered = append(s.answered, r.ID)
				if isAdd {
					s.addIDs[obj] = append(s.addIDs[obj], r.ID)
					s.addSum[obj]++
				}
			}
			s.mu.Unlock()
			pending.Done()
		})
	}
	elapsed := time.Since(start)

	if cfg.BeforeDrain != nil {
		cfg.BeforeDrain()
	}
	drained := make(chan struct{})
	go func() {
		pending.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}

	rep := &Report{
		Offered: offered,
		Elapsed: elapsed,
		Lat:     stats.NewHist(),
		objects: make(map[string]objectAudit),
	}
	for _, s := range sessions {
		s.mu.Lock()
		rep.Lat.Merge(s.hist)
		rep.Answered += len(s.answered)
		rep.Errors += s.errors
		rep.AnsweredIDs = append(rep.AnsweredIDs, s.answered...)
		for obj, ids := range s.addIDs {
			rep.objects[obj] = objectAudit{
				Session: s.name,
				AddIDs:  append([]ops.ID(nil), ids...),
				Sum:     s.addSum[obj],
			}
		}
		s.mu.Unlock()
	}
	rep.Unanswered = rep.Offered - rep.Answered - rep.Errors
	return rep
}

// ReadBack strict-reads every audited object, constrained after ALL of
// its acknowledged adds, and demands the sum match exactly. Reads go
// through each object's owning session client so prev references
// translate across resizes. Returns the first violation.
func ReadBack(ks *core.Keyspace, rep *Report, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	type item struct {
		obj   string
		audit objectAudit
	}
	work := make(chan item, len(rep.objects))
	for obj, a := range rep.objects {
		work <- item{obj, a}
	}
	close(work)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				client := ks.Client(it.audit.Session)
				_, v, err := client.SubmitWaitCtx(ctx, ks.WrapOp(it.obj, dtype.CtrRead{}), it.audit.AddIDs, true)
				var e error
				if err != nil {
					e = fmt.Errorf("strict read-back of %s: %w", it.obj, err)
				} else if got, _ := v.(int64); got != it.audit.Sum {
					e = fmt.Errorf("object %s reads back %v, want exactly %d acknowledged adds (lost or double-applied)",
						it.obj, v, it.audit.Sum)
				}
				if e != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = e
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// AnsweredInOrder checks zero answered-then-lost: every successfully
// answered operation id must appear in some shard's converged order.
// (The union over shards is the right universe: a resize moves an
// object's NEW operations to the destination shard's order while
// source-era history stays put.) Call at quiescence, after WaitConverged.
func AnsweredInOrder(ks *core.Keyspace, rep *Report) error {
	inOrder := make(map[ops.ID]struct{})
	for s := 0; s < ks.NumShards(); s++ {
		conv := ks.Shard(s).CheckConvergence()
		if !conv.Converged {
			return fmt.Errorf("shard %d not converged: %s", s, conv.Reason)
		}
		for _, id := range conv.Order {
			inOrder[id] = struct{}{}
		}
	}
	for _, id := range rep.AnsweredIDs {
		if _, ok := inOrder[id]; !ok {
			return fmt.Errorf("answered op %v missing from every shard's converged order (answered-then-lost)", id)
		}
	}
	return nil
}

// WaitConverged polls until every shard converges to one order, or the
// timeout expires (returning the last non-convergence reason). Gossip
// keeps running after a drain, so convergence is eventual, not instant.
func WaitConverged(ks *core.Keyspace, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		conv := ks.CheckConvergence()
		if conv.Converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("convergence timeout: %s", conv.Reason)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
