package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"esds/internal/core"
	"esds/internal/dtype"
	"esds/internal/ops"
)

// smokeConfig is a run at roughly 1/50 of the benchmark's scale.
func smokeConfig(t *testing.T, workload string, trace bool) *runConfig {
	return &runConfig{
		workload: workload, seed: 7, seconds: 0.4, trace: trace, reps: 2,
		dir: t.TempDir(), log: io.Discard, probeIters: 1 << 10, warmScale: 0.02,
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the metric and
// workload tables of this package from drifting apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, current any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &current); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, current) {
		t.Fatalf("BENCHMARK.json differs from the package's tables; regenerate it with `bash benchmark/run.sh --spec > BENCHMARK.json`")
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and traced
// at smoke scale: every metric BENCHMARK.json names must be emitted, finite
// and with its unit, every end-to-end metric non-zero, and the audit clean.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			d, err := runWorkload(smokeConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if !d.Correct || d.Failed != 0 || d.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, d.Correct, d.Attempted, d.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(d.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics emitted, want %d", w.Name, trace, len(d.Metrics), len(defs))
			}
			for _, def := range defs {
				v, ok := d.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: %s not emitted", w.Name, trace, def.Name)
				case v.Unit != def.Unit:
					t.Errorf("%s: %s has unit %q, want %q", w.Name, def.Name, v.Unit, def.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v is not finite", w.Name, def.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, def.Name, v.Value)
				}
			}
			line, err := json.Marshal(d.report())
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 {
				t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
			}
		}
	}
}

// TestPredictedZeros checks the zeros the layer table predicts: commute mode
// answers from the current state, so the TCP workload computes no response
// by replay and has a wire; the in-process directory workload has no wire and
// no journal.
func TestPredictedZeros(t *testing.T) {
	metric := func(d *runDetail, name string) float64 { return d.Metrics[name].Value }
	tcp, err := runWorkload(smokeConfig(t, "tcp_pipelined", true))
	if err != nil {
		t.Fatal(err)
	}
	if v := metric(tcp, "core.replica.applies_response_per_op"); v != 0 {
		t.Errorf("tcp_pipelined applies_response_per_op = %v, want 0", v)
	}
	for _, name := range []string{"transport.wire_bytes_per_op", "core.replica.applies_current_per_op", "core.gossipcodec.compact_frac", "transport.send_us.request"} {
		if metric(tcp, name) <= 0 {
			t.Errorf("tcp_pipelined %s = %v, want > 0", name, metric(tcp, name))
		}
	}
	dir, err := runWorkload(smokeConfig(t, "live_directory_mix", true))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"transport.wire_bytes_per_op", "core.store.persist_us", "core.store.records_per_sync", "core.replica.applies_current_per_op"} {
		if v := metric(dir, name); v != 0 {
			t.Errorf("live_directory_mix %s = %v, want 0", name, v)
		}
	}
	if metric(dir, "core.replica.applies_response_per_op") <= 0 || metric(dir, "dtype.apply_us") <= 0 {
		t.Errorf("live_directory_mix computes responses by replay; applies_response_per_op and dtype.apply_us must be > 0")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := inputDigest(w.Name, 7), inputDigest(w.Name, 7), inputDigest(w.Name, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs twice", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.Name)
		}
	}
}

// TestAuditCatchesLostAndInvalidated feeds the audit a real converged run and
// then two forgeries: an acknowledged operation the service never ordered
// (answered-then-lost), and a strict response that differs from its value in
// the eventual order.
func TestAuditCatchesLostAndInvalidated(t *testing.T) {
	d := buildLive(core.DefaultOptions(), dtype.Counter{}, nil)
	defer d.close()
	s := &submitter{fe: d.client("w0"), epoch: time.Now(), window: make(chan struct{}, 8)}
	recs := make([]opRec, 40)
	var all []*opRec
	for i := range recs {
		recs[i].op, recs[i].readBack, recs[i].measured = dtype.CtrAdd{N: 2}, -1, true
		if i%4 == 3 {
			recs[i].op, recs[i].strict = dtype.CtrRead{}, true
		}
		s.submit(&recs[i])
		all = append(all, &recs[i])
	}
	if !waitTimeout(&s.wg, 10*time.Second) {
		t.Fatal("operations unanswered")
	}
	if rep := audit(d, all, time.Now(), 10*time.Second); rep.failed != 0 {
		t.Fatalf("honest run failed the audit: %v", rep.err)
	}

	lost := &opRec{id: ops.ID{Client: "w0", Seq: 9999}, op: dtype.CtrAdd{N: 1}, readBack: -1, val: "ok"}
	lost.done.Store(1)
	rep := audit(d, append(all, lost), time.Now(), 10*time.Second)
	if rep.failed != 1 || !strings.Contains(rep.err.Error(), "no converged order") {
		t.Errorf("dropped acknowledged op: failed=%d err=%v, want 1 failure naming the lost op", rep.failed, rep.err)
	}

	strict := &recs[3]
	strict.val = strict.val.(int64) + 1
	rep = audit(d, all, time.Now(), 10*time.Second)
	if rep.failed != 1 || !strings.Contains(rep.err.Error(), "eventual order") {
		t.Errorf("invalidated strict response: failed=%d err=%v, want 1 failure", rep.failed, rep.err)
	}
}

// writeSuite writes a result file in which every workload reads 100 on
// every end-to-end metric but ops_per_s, whose repetitions are given; edit,
// when not nil, changes the result before it is written.
func writeSuite(t *testing.T, dir, name string, opsPerS []float64, edit func(*suiteResult)) string {
	t.Helper()
	res := suiteResult{}
	for _, w := range workloads {
		d := &runDetail{Workload: w.Name, Correct: true, Attempted: 1, Metrics: map[string]metricValue{}, Reps: map[string][]float64{}}
		for _, def := range endToEnd {
			d.Metrics[def.Name] = metricValue{Value: 100, Unit: def.Unit}
		}
		d.Metrics["ops_per_s"] = metricValue{Value: median(opsPerS), Unit: "ops/s"}
		d.Reps["ops_per_s"] = opsPerS
		res.Runs = append(res.Runs, d)
	}
	if edit != nil {
		edit(&res)
	}
	path := filepath.Join(dir, name)
	if err := writeJSONFile(path, res); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	steady := []float64{1000, 1005, 995, 1002, 998}
	slower := []float64{700, 703, 697, 701, 699}
	base := writeSuite(t, dir, "a.json", steady, nil)
	run := func(res *suiteResult, workload string) *runDetail {
		for _, r := range res.Runs {
			if r.Workload == workload {
				return r
			}
		}
		t.Fatalf("no run of %s", workload)
		return nil
	}
	slowOnly := func(workload string) func(*suiteResult) {
		return func(res *suiteResult) {
			r := run(res, workload)
			r.Metrics["ops_per_s"] = metricValue{Value: median(slower), Unit: "ops/s"}
			r.Reps["ops_per_s"] = slower
		}
	}
	for _, c := range []struct {
		name   string
		other  string
		failed bool
		want   string // must appear in the output
	}{
		{"equal runs", writeSuite(t, dir, "same.json", []float64{990, 1001, 985, 1003, 992}, nil), false, ""},
		{"30% slower", writeSuite(t, dir, "slow.json", slower, nil), true, "REGRESSION"},
		{"slower but the repetitions spread wider than the bound", writeSuite(t, dir, "noisy.json", []float64{400, 700, 1100, 690, 1200}, nil), false, "unresolved"},
		{"slower on a host the hypervisor was taking CPU from", writeSuite(t, dir, "steal.json", slower, func(res *suiteResult) {
			for _, r := range res.Runs {
				r.StealFrac = 2 * noisyHostSteal
			}
		}), false, "unresolved"},
		{"only the extra workload slower", writeSuite(t, dir, "extra.json", steady, slowOnly("tcp_durable")), false, "not counted"},
		{"a contract workload missing", writeSuite(t, dir, "missing.json", steady, func(res *suiteResult) {
			res.Runs = slices.DeleteFunc(res.Runs, func(r *runDetail) bool { return r.Workload == "live_directory_mix" })
		}), true, "MISSING"},
		{"a contract workload incorrect", writeSuite(t, dir, "incorrect.json", steady, func(res *suiteResult) {
			run(res, "tcp_pipelined").Correct = false
		}), true, "INCORRECT"},
	} {
		var out bytes.Buffer
		failed, err := compareFiles(&out, base, c.other)
		if err != nil || failed != c.failed || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: failed=%t err=%v, want failed=%t and %q in\n%s", c.name, failed, err, c.failed, c.want, out.String())
		}
	}
}

func TestSpanTreeSelfTimes(t *testing.T) {
	id := ops.ID{Client: "w0", Seq: 16}
	e := opEvents{}
	e.ev[evSendRequest] = interval{110, 120}    // inside Submit
	e.ev[evHandleRequest] = interval{200, 500}  // the replica's handler
	e.ev[evSendResponse] = interval{450, 460}   // inside the handler
	e.ev[evHandleResponse] = interval{700, 760} // the callback fires at 750
	spans := opSpans(id, spanSubmit, 100, 100, 130, 750, e)
	if spans == nil {
		t.Fatal("complete events produced no spans")
	}
	want := map[string]struct {
		parent string
		self   int64
	}{
		spanOp:            {"", 0},
		spanSubmit:        {spanOp, 20},
		spanSendRequest:   {spanSubmit, 10},
		spanTransitReq:    {spanOp, 80},
		spanHandleRequest: {spanOp, 290},
		spanSendResponse:  {spanHandleRequest, 10},
		spanTransitResp:   {spanOp, 240},
		spanFrontHandle:   {spanOp, 50},
	}
	var total int64
	for _, s := range spans {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected span %s [%d,%d]", s.Name, s.Start, s.End)
			continue
		}
		if s.Parent != w.parent || s.Self != w.self {
			t.Errorf("%s: parent %q self %d, want parent %q self %d", s.Name, s.Parent, s.Self, w.parent, w.self)
		}
		delete(want, s.Name)
		total += s.Self
	}
	for name := range want {
		t.Errorf("span %s missing", name)
	}
	// The children cover the whole root and two pairs overlap: Submit is
	// still returning while its frame is in transit (10), and the handler is
	// still running after its response left (40).
	if total != 650+10+40 {
		t.Errorf("self times sum to %d, want the root's 650 plus the 50 two children share", total)
	}
	e.ev[evSendResponse] = interval{}
	if opSpans(id, spanSubmit, 100, 100, 130, 750, e) != nil {
		t.Error("an operation with a missing seam event must not produce spans")
	}
}

// lateSubmitter lets the warm-up operations through and then holds every
// response back until release, a time the first later submission fixes: a
// deployment that stalls during the window and then recovers.
type lateSubmitter struct {
	core.Submitter
	late *lateness
}

type lateness struct {
	warm    atomic.Int64 // warm-up submissions still to let through
	stall   time.Duration
	once    sync.Once
	release time.Time
}

func (s lateSubmitter) Submit(op dtype.Operator, prev []ops.ID, strict bool, cb func(core.Response)) ops.Operation {
	l := s.late
	if l.warm.Add(-1) >= 0 {
		return s.Submitter.Submit(op, prev, strict, cb)
	}
	l.once.Do(func() { l.release = time.Now().Add(l.stall) })
	return s.Submitter.Submit(op, prev, strict, func(resp core.Response) {
		time.AfterFunc(time.Until(l.release), func() { cb(resp) })
	})
}

// TestLateDrainIsStillAudited: a measured open-loop repetition whose backlog
// drains after the short drain but before the straggler timeout has no
// unanswered operations to fail it, so it must get its read-backs and audit.
func TestLateDrainIsStillAudited(t *testing.T) {
	const window = 200 * time.Millisecond
	spec := openSpec{
		sessions: 2, warmOps: 1, rate: 100, gen: genCounter,
		build: func(_ *runConfig, _ int, tr *tracer) (*deployment, error) {
			d := buildLive(core.DefaultOptions(), dtype.Counter{}, tr)
			inner, late := d.client, &lateness{stall: window + olDrain + 300*time.Millisecond}
			late.warm.Store(2) // sessions × warmOps
			d.client = func(name string) core.Submitter { return lateSubmitter{inner(name), late} }
			return d, nil
		},
	}
	r, err := runOpenStep(smokeConfig(t, "late", false), spec, 0, spec.rate, window, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted == 0 || r.failed != 0 {
		t.Fatalf("attempted=%d failed=%d, want every operation answered", r.attempted, r.failed)
	}
	if !r.drained || r.audit.convergeMs == 0 {
		t.Errorf("drained=%t convergeMs=%v: the repetition was not audited", r.drained, r.audit.convergeMs)
	}
}
