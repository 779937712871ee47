package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadDef names a workload; why is the one line BENCHMARK.json carries.
// An extra workload runs in the suite and on request but is not part of
// BENCHMARK.json: its metrics do not repeat closely enough to carry bounds.
type workloadDef struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Extra bool   `json:"-"`
}

var workloads = []workloadDef{
	{Name: "tcp_pipelined", Why: "closed loop over loopback TCP, commuting counter, batched: transport encode, syscalls and front-end batching dominate; replica ordering and dtype do almost nothing"},
	{Name: "tcp_durable", Extra: true, Why: "open loop over the tcp_pipelined deployment with a fsyncing journal per replica: the store (per-record encode, group commit, hold-until-durable) is on every acknowledgement's path"},
	{Name: "live_directory_mix", Why: "closed loop in process, non-commuting Directory reads and writes, no batching: replica ordering, suffix replay and dtype.Apply dominate; transport encodes nothing"},
	{Name: "keyspace_openloop", Why: "open-loop Poisson arrivals on 4 shards under the shard runtime: routing, run folding and keyed state; queueing lands in the latency, and the traced run finds the capacity knee"},
}

// defaultReps is the number of measured repetitions of a closed-loop run.
const defaultReps = 5

// header records what a result was measured on, so two results can be told
// apart before their numbers are compared.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GossipMs   float64 `json:"gossip_ms"`
	BatchMs    float64 `json:"batch_delay_ms"`
	RetransMs  float64 `json:"retransmit_ms"`
	JournalFS  string  `json:"journal_fs"`
}

// runDetail is everything one run measured: the contract's report plus the
// per-repetition raw values and sample counts, so spread can be inspected
// and not only the median.
type runDetail struct {
	Header    header                 `json:"header"`
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Reps      map[string][]float64   `json:"reps,omitempty"`
	Samples   map[string]uint64      `json:"samples,omitempty"`
	Steps     []stepSummary          `json:"steps,omitempty"`
	SpanFile  string                 `json:"span_file,omitempty"`
	StealFrac float64                `json:"host_steal_frac"`
}

// stepSummary is one open-loop rate step.
type stepSummary struct {
	Rate       float64 `json:"rate"`
	OK         bool    `json:"ok"`
	Goodput    float64 `json:"goodput_ops_s"`
	P99Ms      float64 `json:"lat_nonstrict_p99_ms"`
	Unanswered int     `json:"unanswered"`
	PendingMid int     `json:"pending_mid"`
	PendingEnd int     `json:"pending_end"`
}

func (d *runDetail) report() report {
	return report{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: d.Metrics}
}

// gitCommit is the checkout's commit, or "unknown" outside a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsType names the filesystem holding dir (the journals' fsync cost is this
// disk's, not the program's).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func newHeader(rc *runConfig) header {
	return header{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       rc.seed,
		Seconds:    rc.seconds,
		GossipMs:   float64(gossipInterval) / 1e6,
		BatchMs:    float64(batchDelay) / 1e6,
		RetransMs:  float64(retransmitInterval) / 1e6,
		JournalFS:  fsType(rc.dir),
	}
}

// runWorkload runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runWorkload(rc *runConfig) (*runDetail, error) {
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return nil, err
	}
	d := &runDetail{Header: newHeader(rc), Workload: rc.workload, Trace: rc.trace}
	h := d.Header
	rc.logf("# %s seed=%d seconds=%g trace=%t", rc.workload, rc.seed, rc.seconds, rc.trace)
	rc.logf("# commit=%s %s nproc=%d GOMAXPROCS=%d gossip=%gms batch_delay=%gms retransmit=%gms journal_fs=%s",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.GossipMs, h.BatchMs, h.RetransMs, h.JournalFS)

	steal0, total0 := hostSteal()
	var values map[string]float64
	var err error
	if spec, ok := closedSpecs[rc.workload]; ok {
		values, err = runClosed(rc, spec, d)
	} else if spec, ok := openSpecs[rc.workload]; ok {
		values, err = runOpen(rc, spec, d)
	} else {
		err = fmt.Errorf("unknown workload %q", rc.workload)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	d.Metrics = withUnits(defs, values)
	d.Correct = d.Failed == 0 && d.Attempted > 0
	printMetrics(rc, defs, d)
	steal1, total1 := hostSteal()
	d.StealFrac = ratio(steal1-steal0, total1-total0)
	rc.logf("  host steal during the run: %.1f%% of all CPU time", 100*d.StealFrac)
	return d, nil
}

func printMetrics(rc *runConfig, defs []metricDef, d *runDetail) {
	for _, def := range defs {
		v := d.Metrics[def.Name]
		line := fmt.Sprintf("  %-42s %14.4f %-6s", def.Name, v.Value, v.Unit)
		if raw := d.Reps[def.Name]; len(raw) > 1 {
			s := sorted(raw)
			line += fmt.Sprintf("  min %.4g max %.4g  reps %.4g", s[0], s[len(s)-1], raw)
		}
		if n, ok := d.Samples[def.Name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		rc.logf("%s", line)
	}
	rc.logf("  correct=%t attempted=%d failed=%d", d.Correct, d.Attempted, d.Failed)
}

// logRep prints one repetition's headline numbers.
func logRep(rc *runConfig, tag string, r *repStats) {
	rc.logf("  %s: setup %.3fs, %d ops in %.3fs = %.0f ops/s, %.1f us cpu/op, nonstrict p50 %.3f p90 %.3f p99 %.3f ms (n=%d), strict p50 %.3f p90 %.3f p99 %.3f ms (n=%d), converge %.1f ms, failed %d",
		tag, r.setupS, r.acked, r.window.Seconds(), r.opsPerS(), r.cpuUsPerOp(),
		r.nonstrict.ms(0.5), r.nonstrict.ms(0.9), r.nonstrict.ms(0.99), len(r.nonstrict),
		r.strict.ms(0.5), r.strict.ms(0.9), r.strict.ms(0.99), len(r.strict), r.audit.convergeMs, r.failed)
	if r.audit.err != nil {
		rc.logf("  %s: AUDIT FAILED: %v", tag, r.audit.err)
	}
}

func (d *runDetail) count(reps ...*repStats) {
	for _, r := range reps {
		d.Attempted += r.attempted
		d.Failed += r.failed
	}
}

// latencySamples records how many samples stand behind the latency metrics.
func (d *runDetail) latencySamples(reps []*repStats) {
	d.Samples = map[string]uint64{}
	for _, r := range reps {
		d.Samples["lat_nonstrict_p50_ms"] += uint64(len(r.nonstrict))
		d.Samples["lat_strict_p50_ms"] += uint64(len(r.strict))
	}
	d.Samples["lat_nonstrict_p90_ms"] = d.Samples["lat_nonstrict_p50_ms"]
	d.Samples["lat_strict_p90_ms"] = d.Samples["lat_strict_p50_ms"]
}

// repeat runs n repetitions on fresh deployments, logs and counts each, and
// returns them split by whether the seam wrappers were on. Only a traced run
// (--trace 1) traces, and only the repetitions withTrace selects.
func (d *runDetail) repeat(rc *runConfig, n int, withTrace func(rep int) bool, run func(rep int, traced bool) (*repStats, error)) (untraced, traced []*repStats, err error) {
	for rep := 0; rep < n; rep++ {
		on := rc.trace && withTrace(rep)
		r, err := run(rep, on)
		if err != nil {
			return nil, nil, fmt.Errorf("repetition %d: %w", rep, err)
		}
		tag := fmt.Sprintf("rep %d", rep)
		if on {
			tag += " traced"
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
		logRep(rc, tag, r)
		d.count(r)
	}
	if rc.trace && (len(traced) == 0 || len(untraced) == 0) {
		return nil, nil, fmt.Errorf("a traced run needs a traced and an untraced repetition, got %d repetitions", n)
	}
	return untraced, traced, nil
}

// runClosed runs a closed-loop workload: rc.reps repetitions, each of the
// fixed number of operations that takes about rc.seconds/rc.reps on the
// reference box. Untraced, each metric is the median over them.
// Traced, repetitions 0 and 2 stay untraced (the overhead base) and the
// others carry the wrappers.
func runClosed(rc *runConfig, spec closedSpec, d *runDetail) (map[string]float64, error) {
	window := rc.seconds / float64(rc.reps)
	untraced, traced, err := d.repeat(rc, rc.reps, func(rep int) bool { return rep != 0 && rep != 2 },
		func(rep int, on bool) (*repStats, error) { return runClosedRep(rc, spec, rep, window, on) })
	if err != nil {
		return nil, err
	}
	if !rc.trace {
		return d.endToEndValues(untraced), nil
	}
	if err := d.writeSpans(rc, traced); err != nil {
		return nil, err
	}
	return layerMetrics(layerInput{traced: traced, untraced: untraced, probes: runProbes(rc, openSpec{})}), nil
}

// olStepShare is the share of --seconds one ladder step of the traced run
// offers its rate for.
const olStepShare = 0.10

func (d *runDetail) addStep(rc *runConfig, r *repStats) {
	s := stepSummary{
		Rate: r.rate, OK: r.stepOK(), Goodput: r.opsPerS(), P99Ms: r.nonstrict.ms(0.99),
		Unanswered: r.attempted - r.acked, PendingMid: r.pendingMid, PendingEnd: r.pendingEnd,
	}
	d.Steps = append(d.Steps, s)
	verdict := "ok"
	if !s.OK {
		verdict = "FAILED the limit"
	}
	rc.logf("  step %.0f ops/s: %s (goodput %.1f, nonstrict p99 %.3f ms, unanswered after %v drain %d, in flight mid %d end %d)",
		s.Rate, verdict, s.Goodput, s.P99Ms, olDrain, s.Unanswered, s.PendingMid, s.PendingEnd)
}

// runOpen runs the open-loop workload. Untraced: rc.reps repetitions of the
// reference rate, each on a fresh keyspace, every metric the median over
// them — the same shape as a closed-loop run. Traced: the reference rate
// once untraced (overhead base) and twice traced, then the rate ladder with
// wrappers off, stopping at the first rate that fails the limit. The ladder
// lives in the traced run because the capacity it finds is a step function
// of a metastable collapse: it names the right step but does not repeat
// closely enough to carry a bound. Operations of the step that fails are
// not failures of the run: finding that step is the measurement.
func runOpen(rc *runConfig, spec openSpec, d *runDetail) (map[string]float64, error) {
	refDur := time.Duration(rc.seconds / float64(rc.reps) * float64(time.Second))
	stepDur := time.Duration(olStepShare * rc.seconds * float64(time.Second))

	reps := rc.reps
	if rc.trace {
		reps = 3
	}
	untraced, traced, err := d.repeat(rc, reps, func(rep int) bool { return rep > 0 },
		func(rep int, on bool) (*repStats, error) {
			return runOpenStep(rc, spec, rep, spec.rate, refDur, on, true)
		})
	if err != nil {
		return nil, err
	}
	if !rc.trace {
		return d.endToEndValues(untraced), nil
	}
	in := layerInput{traced: traced, untraced: untraced, openLoop: true, probes: runProbes(rc, spec)}
	if err := d.writeSpans(rc, traced); err != nil {
		return nil, err
	}
	best := 0.0
	if len(spec.ladder) > 0 {
		best = median(overReps(in.untraced, (*repStats).opsPerS))
	}
	for i, rate := range spec.ladder {
		r, err := runOpenStep(rc, spec, 3+i, rate, stepDur, false, false)
		if err != nil {
			return nil, err
		}
		d.addStep(rc, r)
		if i == 0 {
			in.knee = r
		}
		if !r.stepOK() {
			break
		}
		d.count(r)
		best = r.opsPerS()
	}
	values := layerMetrics(in)
	values["capacity.max_rate_ok_ops_s"] = best
	return values, nil
}

// endToEndValues fills in the raw per-repetition values and sample counts
// and returns the end-to-end metrics: the median over the repetitions, and
// the process's peak resident set.
func (d *runDetail) endToEndValues(reps []*repStats) map[string]float64 {
	d.Reps = endToEndRaw(reps)
	d.latencySamples(reps)
	values := make(map[string]float64)
	for name, raw := range d.Reps {
		values[name] = median(raw)
	}
	values["peak_rss_mb"] = peakRSSMiB()
	return values
}

// writeSpans writes the traced repetitions' sampled spans as JSON lines.
func (d *runDetail) writeSpans(rc *runConfig, traced []*repStats) error {
	path := filepath.Join(rc.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, sampledOps, incomplete := 0, 0, 0
	for _, r := range traced {
		if err := encodeSpans(f, r.spans); err != nil {
			f.Close()
			return err
		}
		n += len(r.spans)
		sampledOps += r.ledger.sampledOps
		incomplete += r.ledger.incomplete
	}
	if err := f.Close(); err != nil {
		return err
	}
	d.SpanFile = path
	rc.logf("  %d spans of %d sampled operations (1 in %d; %d more had a seam event missing) written to %s",
		n, sampledOps-incomplete, sampleEvery, incomplete, path)
	return nil
}
