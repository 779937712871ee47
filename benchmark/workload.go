package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/ops"
	"esds/internal/stats"
)

// runConfig is one invocation: one workload, one seed, one traced-or-not run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // total measured time, split across repetitions or steps
	trace    bool
	reps     int    // measured repetitions; defaultReps except in the smoke tests
	dir      string // journals and span files go here
	log      io.Writer
	// probeIters is the iteration count of the isolated leaf-layer probes.
	probeIters int
	// warmScale scales every warm-up's operation count; 1 except in the
	// smoke tests.
	warmScale float64
}

// warm returns a spec's warm-up operation count at this run's scale.
func (rc *runConfig) warm(ops int) int {
	n := int(float64(ops) * rc.warmScale)
	if n < 1 {
		n = 1
	}
	return n
}

func (rc *runConfig) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// opInput is one generated operation: what the program under test receives.
type opInput struct {
	op     dtype.Operator
	strict bool
}

// strictFrac is the share of strict operations in every workload: enough
// strict samples for a p99, few enough that non-strict traffic dominates the
// way the paper's §11.1 trade assumes.
const strictFrac = 0.10

// closedSpec describes a closed-loop workload: a fixed number of clients,
// each keeping up to window operations in flight and submitting the next as
// soon as a slot frees. A slow system therefore receives less load.
type closedSpec struct {
	clients int
	window  int
	warmOps int // per client, before the timed window, so caches fill and connections dial
	// opsPerSecond sizes a repetition: each client submits this many
	// operations per second of --seconds/reps, however long they take (that
	// long on the reference box at its slowest, a third less at its best).
	// The work is fixed and not the time
	// because replicas retain state per operation: in a fixed time a faster
	// service would process more, hold more, and read worse on peak_rss_mb
	// and on every cost that grows with the state, for being faster.
	opsPerSecond int
	gen          func(rng *rand.Rand) opInput
	build        func(rc *runConfig, rep int, tr *tracer) (*deployment, error)
	// counter workloads end with a strict read constrained after every
	// acknowledged add; it must return their exact sum.
	counter bool
}

// genCounter generates adds only, one in ten strict. The TCP workloads run
// commute mode, which is sound only when clients order every pair of
// dependent operations themselves (§10.3's SafeUsers): adds are mutually
// independent, a read racing them would not be, so the only read is the
// read-back constrained after every add. A strict add still waits for
// stability before it is answered, which is the latency lat_strict_* reads.
func genCounter(rng *rand.Rand) opInput {
	return opInput{op: dtype.CtrAdd{N: int64(1 + rng.Intn(9))}, strict: rng.Float64() < strictFrac}
}

const (
	dirNames = 64
	dirKeys  = 4
)

func genDirectory(rng *rand.Rand) opInput {
	name := fmt.Sprintf("n%02d", rng.Intn(dirNames))
	key := fmt.Sprintf("k%d", rng.Intn(dirKeys))
	in := opInput{strict: rng.Float64() < strictFrac}
	switch rng.Intn(4) {
	case 0:
		in.op = dtype.DirBind{Name: name}
	case 1:
		in.op = dtype.DirSetAttr{Name: name, Key: key, Val: fmt.Sprintf("v%d", rng.Intn(1000))}
	case 2:
		in.op = dtype.DirGetAttr{Name: name, Key: key}
	default:
		in.op = dtype.DirLookup{Name: name}
	}
	return in
}

func tcpOptions() core.Options {
	opt := batchedOptions()
	opt.Commute = true
	return opt
}

var closedSpecs = map[string]closedSpec{
	"tcp_pipelined": {
		clients: 2, window: 256, warmOps: 10000, opsPerSecond: 8000, gen: genCounter, counter: true,
		build: func(_ *runConfig, _ int, tr *tracer) (*deployment, error) {
			return buildTCP(tcpOptions(), dtype.Counter{}, "", tr)
		},
	},
	"live_directory_mix": {
		clients: 2, window: 8, warmOps: 500, opsPerSecond: 640, gen: genDirectory,
		build: func(_ *runConfig, _ int, tr *tracer) (*deployment, error) {
			return buildLive(core.DefaultOptions(), dtype.Directory{}, tr), nil
		},
	},
}

// repSeed derives the input seed of one repetition or step, so repetitions
// of one run see different inputs and the same --seed reproduces all of them.
func repSeed(seed int64, rep int) int64 { return seed*1000003 + int64(rep) }

// closedInputs generates every client's inputs for one repetition: warm-up
// first, then the window's.
func closedInputs(spec closedSpec, seed int64, rep int, warmOps int, windowSeconds float64) [][]opInput {
	rng := rand.New(rand.NewSource(repSeed(seed, rep)))
	n := warmOps + int(float64(spec.opsPerSecond)*windowSeconds)
	out := make([][]opInput, spec.clients)
	for c := range out {
		out[c] = make([]opInput, n)
		for i := range out[c] {
			out[c][i] = spec.gen(rng)
		}
	}
	return out
}

// repStats is what one repetition (closed loop) or one rate step (open loop)
// measured.
type repStats struct {
	traced    bool
	setupS    float64
	attempted int
	acked     int
	failed    int // errored + unanswered + audit-mismatched
	window    time.Duration
	before    snapshot
	after     snapshot
	nonstrict latencies // sorted; submit (or due) → callback
	strict    latencies
	late      *stats.Hist // ns the open-loop generator ran behind schedule
	audit     auditReport
	retained  int // full descriptors held by all replicas after convergence
	suffix    []float64
	tr        *tracer
	ledger    *spanLedger
	spans     []span

	// open loop only
	rate       float64
	pendingMid int
	pendingEnd int
	drained    bool
}

func (r *repStats) opsPerS() float64 { return ratio(float64(r.acked), r.window.Seconds()) }

func (r *repStats) cpuUsPerOp() float64 {
	return ratio(float64(r.after.cpu-r.before.cpu)/1e3, float64(r.acked))
}

// collect folds the window's operation records into the repetition's
// counters and latency histograms, and builds the sampled spans on a traced
// repetition.
func (r *repStats) collect(recs []*opRec, submitSpan string) {
	if r.traced {
		r.ledger = newSpanLedger()
	}
	var first, last int64
	for _, rec := range recs {
		if !rec.measured {
			continue
		}
		r.attempted++
		done := rec.done.Load()
		if done == 0 || rec.err != nil { // unanswered, or answered with an error
			r.failed++
			continue
		}
		r.acked++
		if first == 0 || rec.sub < first {
			first = rec.sub
		}
		if done > last {
			last = done
		}
		if rec.strict {
			r.strict = append(r.strict, done-rec.due)
		} else {
			r.nonstrict = append(r.nonstrict, done-rec.due)
		}
		if r.traced && sampled(rec.id) {
			r.ledger.sampledOps++
			e := r.tr.eventsOf(rec.id)
			r.ledger.resends += e.resends
			spans := opSpans(rec.id, submitSpan, rec.due, rec.sub, rec.subEnd, done, e)
			if spans == nil {
				r.ledger.incomplete++
				continue
			}
			r.ledger.add(spans)
			r.spans = append(r.spans, spans...)
		}
	}
	r.window = time.Duration(last - first)
	slices.Sort(r.nonstrict)
	slices.Sort(r.strict)
}

// submitter drives one client's side of a closed loop.
type submitter struct {
	fe     core.Submitter
	epoch  time.Time
	window chan struct{}
	wg     sync.WaitGroup
	traced bool
}

func (s *submitter) submit(rec *opRec) {
	s.window <- struct{}{}
	s.wg.Add(1)
	rec.sub = int64(time.Since(s.epoch))
	rec.due = rec.sub
	x := s.fe.Submit(rec.op, nil, rec.strict, func(resp core.Response) {
		rec.val, rec.err = resp.Value, resp.Err
		rec.done.Store(int64(time.Since(s.epoch)))
		<-s.window
		s.wg.Done()
	})
	rec.id = x.ID
	if s.traced {
		rec.subEnd = int64(time.Since(s.epoch))
	}
}

// waitTimeout waits for wg up to d and reports whether it finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

const (
	// closedDeadlineFactor bounds a closed-loop window: a service this many
	// times slower than the one the repetition was sized for is cut short,
	// so that the run still ends in time.
	closedDeadlineFactor = 3
	stragglerTimeout     = 10 * time.Second // for in-flight ops after a closed-loop window
	readBackTimeout      = 30 * time.Second
	convergeTimeout      = 20 * time.Second
)

// runClosedRep runs one repetition of a closed-loop workload on a fresh
// deployment: set-up (inputs, deployment, dials, warm-up), the timed window,
// then read-back, convergence and audit outside it.
func runClosedRep(rc *runConfig, spec closedSpec, rep int, windowSeconds float64, traced bool) (*repStats, error) {
	epoch := time.Now() // every timestamp of the repetition is relative to this
	r := &repStats{traced: traced}
	if traced {
		r.tr = newTracer(epoch)
	}
	warmOps := rc.warm(spec.warmOps)
	inputs := closedInputs(spec, rc.seed, rep, warmOps, windowSeconds)
	d, err := spec.build(rc, rep, r.tr)
	if err != nil {
		return nil, fmt.Errorf("building deployment: %w", err)
	}
	defer d.close()

	subs := make([]*submitter, spec.clients)
	recs := make([][]opRec, spec.clients)
	for c := range subs {
		subs[c] = &submitter{
			fe:     d.client(fmt.Sprintf("w%d", c)),
			epoch:  epoch,
			window: make(chan struct{}, spec.window),
			traced: traced,
		}
		recs[c] = make([]opRec, len(inputs[c]))
		for i, in := range inputs[c] {
			recs[c][i].op, recs[c][i].strict, recs[c][i].readBack = in.op, in.strict, -1
		}
	}
	// phase runs every client over its records [from, to) concurrently; a
	// non-zero deadline stops submission when it passes.
	phase := func(from, to int, deadline time.Time, measured bool) bool {
		var clients sync.WaitGroup
		for c, s := range subs {
			clients.Add(1)
			go func() {
				defer clients.Done()
				for i := from; i < to; i++ {
					if !deadline.IsZero() && time.Now().After(deadline) {
						rc.logf("  note: client %d stopped at the deadline with %d of its operations not submitted", c, to-i)
						return
					}
					recs[c][i].measured = measured
					s.submit(&recs[c][i])
				}
			}()
		}
		clients.Wait()
		ok := true
		for _, s := range subs {
			ok = waitTimeout(&s.wg, stragglerTimeout) && ok
		}
		return ok
	}
	if !phase(0, warmOps, time.Time{}, false) {
		return nil, fmt.Errorf("warm-up operations unanswered after %v", stragglerTimeout)
	}
	r.setupS = time.Since(epoch).Seconds()

	var sampler *suffixSampler
	if traced {
		sampler = startSuffixSampler(d.replicas())
	}
	r.before = takeSnapshot(d)
	r.tr.setOpen(true)
	phase(warmOps, len(inputs[0]), time.Now().Add(time.Duration(closedDeadlineFactor*windowSeconds*float64(time.Second))), true)
	r.tr.setOpen(false)
	lastCallback := time.Now()
	r.after = takeSnapshot(d)
	if sampler != nil {
		r.suffix = sampler.finish()
	}

	var all []*opRec
	for c := range recs {
		for i := range recs[c] {
			if recs[c][i].sub != 0 {
				all = append(all, &recs[c][i])
			}
		}
	}
	r.collect(all, spanSubmit)

	if spec.counter && r.failed == 0 {
		rb := counterReadBack(d, subs[0], all, "")
		all = append(all, rb)
		if !waitTimeout(&subs[0].wg, readBackTimeout) {
			r.audit.fail("strict read-back unanswered after %v", readBackTimeout)
		}
		lastCallback = time.Now()
	}
	if r.audit.err == nil {
		r.audit = audit(d, all, lastCallback, convergeTimeout)
	}
	r.failed += r.audit.failed
	for _, rep := range d.replicas() {
		r.retained += rep.Metrics().RetainedOps
	}
	return r, nil
}

// counterReadBack submits a strict read of object (the whole counter when
// object is "") constrained after every acknowledged add to it, and records
// the exact sum it must return.
func counterReadBack(d *deployment, s *submitter, recs []*opRec, object string) *opRec {
	var prev []ops.ID
	var sum int64
	for _, r := range recs {
		op := r.op
		if k, ok := op.(dtype.KeyedOp); ok {
			if k.Key != object {
				continue
			}
			op = k.Op
		}
		if add, ok := op.(dtype.CtrAdd); ok && r.answered() {
			prev = append(prev, r.id)
			sum += add.N
		}
	}
	rb := &opRec{op: d.wrap(object, dtype.CtrRead{}), strict: true, readBack: sum}
	s.wg.Add(1)
	x := s.fe.Submit(rb.op, prev, true, func(resp core.Response) {
		rb.val, rb.err = resp.Value, resp.Err
		rb.done.Store(int64(time.Since(s.epoch)))
		s.wg.Done()
	})
	rb.id = x.ID
	d.flush()
	return rb
}

// --- open loop ---

// openSpec describes an open-loop workload: independent client sessions
// whose arrivals follow a Poisson process on an absolute schedule that does
// not slow down for the system, so queueing shows up in latency.
type openSpec struct {
	sessions int
	objects  int     // private objects per session; 0 means the deployment has one unnamed object
	warmOps  int     // adds per session before the timed window
	rate     float64 // ops/s offered: the rate the end-to-end metrics are read at
	ladder   []float64
	gen      func(rng *rand.Rand) opInput
	build    func(rc *runConfig, rep int, tr *tracer) (*deployment, error)
}

const (
	olP99LimitMs = 50 // a ladder step passes only under this non-strict p99
	olDrain      = 2 * time.Second
	// olMaxInFlight bounds the operations a measured repetition (and every
	// warm-up) keeps in flight over all sessions. At the reference rates
	// about 2 are in flight, so the bound is idle until the host or the
	// service stalls. Then the arrivals that fall due queue in the generator,
	// still timed from their due time, and go out as slots free. Without it
	// the backlog of a half-second stall goes out as one burst of several
	// hundred operations, and that is enough to tip a keyspace into the
	// collapse it does not recover from — a failed run that says nothing
	// about the change under test. (At 128 in flight a keyspace survives but
	// catches up at three times the CPU per operation; at 64 it does not
	// notice.) The ladder steps, which look for that collapse, are not
	// bounded.
	olMaxInFlight = 64
)

// genKeyedCounter is the keyspace mix: 45% adds, 45% non-strict reads, 10%
// strict reads. Reads may race adds here: the keyspace does not run commute
// mode.
func genKeyedCounter(rng *rand.Rand) opInput {
	switch p := rng.Float64(); {
	case p < 0.45:
		return opInput{op: dtype.CtrAdd{N: int64(1 + rng.Intn(9))}}
	case p < 1-strictFrac:
		return opInput{op: dtype.CtrRead{}}
	default:
		return opInput{op: dtype.CtrRead{}, strict: true}
	}
}

var openSpecs = map[string]openSpec{
	"tcp_durable": {
		sessions: 2, warmOps: 500, rate: 1000, gen: genCounter,
		build: func(rc *runConfig, rep int, tr *tracer) (*deployment, error) {
			dir := filepath.Join(rc.dir, fmt.Sprintf("journal-seed%d-trace%t-rep%d", rc.seed, rc.trace, rep))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			d, err := buildTCP(tcpOptions(), dtype.Counter{}, dir, tr)
			if err != nil {
				return nil, err
			}
			d.closers = append(d.closers, func() { os.RemoveAll(dir) })
			return d, nil
		},
	},
	"keyspace_openloop": {
		sessions: 64, objects: 16, warmOps: 16, rate: 750, ladder: []float64{1000, 1500, 2000, 3000, 4000}, gen: genKeyedCounter,
		build: func(_ *runConfig, _ int, tr *tracer) (*deployment, error) {
			return buildKeyspace(batchedOptions(), dtype.Counter{}, tr), nil
		},
	},
}

// objectName names a session's private object ("" when the deployment has a
// single unnamed object).
func (spec openSpec) objectName(session, object int) string {
	if spec.objects == 0 {
		return ""
	}
	return fmt.Sprintf("s%02d/o%02d", session, object)
}

// objectNames lists every object of the workload.
func (spec openSpec) objectNames() []string {
	if spec.objects == 0 {
		return []string{""}
	}
	var out []string
	for s := 0; s < spec.sessions; s++ {
		for o := 0; o < spec.objects; o++ {
			out = append(out, spec.objectName(s, o))
		}
	}
	return out
}

// arrival is one generated open-loop operation.
type arrival struct {
	at      time.Duration // due time after the step starts
	session int
	object  int
	in      opInput
}

// openInputs generates one step's arrivals.
func openInputs(spec openSpec, seed int64, step int, rate float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(repSeed(seed, step)))
	var out []arrival
	var cum time.Duration
	for {
		cum += time.Duration(rng.ExpFloat64() * float64(time.Second) / rate)
		if cum >= dur {
			return out
		}
		a := arrival{at: cum, session: rng.Intn(spec.sessions)}
		if spec.objects > 0 {
			a.object = rng.Intn(spec.objects)
		}
		a.in = spec.gen(rng)
		out = append(out, a)
	}
}

// stepOK is the open-loop pass rule: the non-strict p99 is under the limit,
// every operation was answered within the drain, and the backlog was not
// growing (in flight at the window's end no more than 5% above mid-window,
// with a slack of 50 ms worth of arrivals for the small numbers).
func (r *repStats) stepOK() bool {
	return r.drained && r.failed == 0 &&
		r.nonstrict.ms(0.99) <= olP99LimitMs &&
		float64(r.pendingEnd) <= 1.05*float64(r.pendingMid)+0.05*r.rate
}

// runOpenStep offers one fixed rate to a fresh deployment for dur. With
// mustPass set it is a measured repetition: it is audited, read-backs
// included, whatever happened. Otherwise it is a capacity-ladder step: one
// that passes stepOK is audited without read-backs, and one that fails is
// torn down in the background and not audited, because an overloaded
// deployment can take minutes to drain.
func runOpenStep(rc *runConfig, spec openSpec, step int, rate float64, dur time.Duration, traced, mustPass bool) (*repStats, error) {
	epoch := time.Now() // every timestamp of the step is relative to this
	r := &repStats{traced: traced, rate: rate, late: stats.NewHist()}
	if traced {
		r.tr = newTracer(epoch)
	}
	arrivals := openInputs(spec, rc.seed, step, rate, dur)
	d, err := spec.build(rc, step, r.tr)
	if err != nil {
		return nil, fmt.Errorf("building deployment: %w", err)
	}
	// The warm-up is a closed loop: a burst of thousands into a cold keyspace
	// is enough to tip it into the collapse the ladder looks for.
	warmWindow := olMaxInFlight / spec.sessions
	sessions := make([]*submitter, spec.sessions)
	for s := range sessions {
		sessions[s] = &submitter{
			fe:     d.client(fmt.Sprintf("s%02d", s)),
			epoch:  epoch,
			window: make(chan struct{}, warmWindow),
			traced: traced,
		}
	}
	// Warm-up: adds spread over each session's objects, so every object
	// exists (a keyed state is at its full size), every front end is
	// registered and every connection is dialled.
	warm := make([]opRec, spec.sessions*rc.warm(spec.warmOps))
	for i := range warm {
		s, o := i%spec.sessions, i/spec.sessions
		if spec.objects > 0 {
			o %= spec.objects
		}
		warm[i].op, warm[i].readBack = d.wrap(spec.objectName(s, o), dtype.CtrAdd{N: 1}), -1
		sessions[s].submit(&warm[i])
	}
	for _, s := range sessions {
		if !waitTimeout(&s.wg, stragglerTimeout) {
			go d.close()
			return nil, fmt.Errorf("warm-up operations unanswered after %v", stragglerTimeout)
		}
	}
	r.setupS = time.Since(epoch).Seconds()

	// The suffix sampler only polls Replica.Metrics, so the traced run keeps
	// it on for its untraced ladder steps too.
	var sampler *suffixSampler
	if rc.trace {
		sampler = startSuffixSampler(d.replicas())
	}
	recs := make([]opRec, len(arrivals))
	var pending sync.WaitGroup
	var answered atomic.Int64
	r.before = takeSnapshot(d)
	r.tr.setOpen(true)
	start := time.Now()
	startNs := int64(start.Sub(epoch))
	midSeen := false
	var inFlight chan struct{}
	if mustPass {
		inFlight = make(chan struct{}, olMaxInFlight)
	}
	slotTimeout := time.NewTimer(stragglerTimeout)
	defer slotTimeout.Stop()
dispatch:
	for i, a := range arrivals {
		if wait := time.Until(start.Add(a.at)); wait > 0 {
			time.Sleep(wait)
		}
		if inFlight != nil {
			slotTimeout.Reset(stragglerTimeout)
			select {
			case inFlight <- struct{}{}:
			case <-slotTimeout.C:
				// Nothing was answered for this long: the arrivals still due
				// count as attempted and unanswered.
				for j := i; j < len(arrivals); j++ {
					recs[j].measured = true
				}
				break dispatch
			}
		}
		if !midSeen && a.at >= dur/2 {
			midSeen = true
			r.pendingMid = i - int(answered.Load())
		}
		rec := &recs[i]
		rec.op, rec.strict, rec.readBack, rec.measured = d.wrap(spec.objectName(a.session, a.object), a.in.op), a.in.strict, -1, true
		rec.due = startNs + int64(a.at)
		rec.sub = int64(time.Since(epoch))
		r.late.Record(rec.sub - rec.due)
		pending.Add(1)
		x := sessions[a.session].fe.Submit(rec.op, nil, rec.strict, func(resp core.Response) {
			rec.val, rec.err = resp.Value, resp.Err
			rec.done.Store(int64(time.Since(epoch)))
			answered.Add(1)
			if inFlight != nil {
				<-inFlight
			}
			pending.Done()
		})
		rec.id = x.ID
		if traced {
			rec.subEnd = int64(time.Since(epoch))
		}
	}
	r.pendingEnd = len(arrivals) - int(answered.Load())
	r.drained = waitTimeout(&pending, olDrain)
	if mustPass && !r.drained {
		// A ladder step is judged on the short drain; a measured repetition
		// only fails the operations that are still unanswered much later, and
		// is audited like any other once its backlog has drained.
		r.drained = waitTimeout(&pending, stragglerTimeout-olDrain)
	}
	r.tr.setOpen(false)
	lastCallback := time.Now()
	r.after = takeSnapshot(d)
	if sampler != nil {
		r.suffix = sampler.finish()
	}

	all := make([]*opRec, 0, len(warm)+len(recs))
	for i := range warm {
		all = append(all, &warm[i])
	}
	for i := range recs {
		all = append(all, &recs[i])
	}
	submitSpan := spanKsSubmit
	if spec.objects == 0 {
		submitSpan = spanSubmit
	}
	r.collect(all, submitSpan)
	// Open-loop goodput is counted over the offered window, not to the last
	// callback: the schedule, not the system, sets the window.
	r.window = dur
	if !mustPass && !r.stepOK() {
		go d.close()
		return r, nil
	}
	if !r.drained {
		// Read-backs and convergence behind an undrained backlog would only
		// time out; the unanswered operations already fail the repetition.
		go d.close()
		return r, nil
	}
	defer d.close()

	if mustPass {
		n := len(all)
		for i, object := range spec.objectNames() {
			owner := sessions[0]
			if spec.objects > 0 {
				owner = sessions[i/spec.objects]
			}
			all = append(all, counterReadBack(d, owner, all[:n], object))
		}
		for _, s := range sessions {
			if !waitTimeout(&s.wg, readBackTimeout) {
				r.audit.fail("strict read-backs unanswered after %v", readBackTimeout)
				break
			}
		}
		lastCallback = time.Now()
	}
	if r.audit.err == nil {
		r.audit = audit(d, all, lastCallback, convergeTimeout)
	}
	r.failed += r.audit.failed
	for _, rep := range d.replicas() {
		r.retained += rep.Metrics().RetainedOps
	}
	return r, nil
}

// inputDigest hashes every input the given seed generates for a workload, so
// a test can show that the same seed gives byte-identical inputs.
func inputDigest(workload string, seed int64) string {
	h := sha256.New()
	if spec, ok := closedSpecs[workload]; ok {
		for rep := 0; rep < 2; rep++ {
			for _, client := range closedInputs(spec, seed, rep, 10, 0.05) {
				for _, in := range client {
					fmt.Fprintf(h, "%#v %t\n", in.op, in.strict)
				}
			}
		}
	} else if spec, ok := openSpecs[workload]; ok {
		for step := 0; step < 2; step++ {
			for _, a := range openInputs(spec, seed, step, spec.rate, 200*time.Millisecond) {
				fmt.Fprintf(h, "%d %d %d %#v %t\n", a.at, a.session, a.object, a.in.op, a.in.strict)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
