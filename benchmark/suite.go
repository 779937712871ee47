package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"esds/internal/stats"
)

// childDeadline is the hard wall-clock limit of one child run: a teardown
// wedged behind an overloaded deployment must not stall the suite.
const childDeadline = 170 * time.Second

// suiteResult is the file the suite writes and --compare reads.
type suiteResult struct {
	Header header       `json:"header"`
	Runs   []*runDetail `json:"runs"`
}

// runSuite runs every workload untraced and then traced, each in a child
// process of its own (a clean peak RSS, and a deadline that can be enforced),
// prints both metric tables, and writes the result file. It reports whether
// every run was correct.
func runSuite(seed int64, seconds float64, dir, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	if out == "" {
		out = filepath.Join(dir, fmt.Sprintf("result-seed%d.json", seed))
	}
	res := suiteResult{}
	ok := true
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t := "0"
			if trace {
				t = "1"
			}
			// The path does not change between suites of one seed: without
			// this, a child that dies before writing would leave an earlier
			// suite's numbers to be read as its own.
			detail := detailPath(dir, w.Name, seed, trace)
			if err := os.Remove(detail); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return false, err
			}
			ctx, cancel := context.WithTimeout(context.Background(), childDeadline)
			cmd := exec.CommandContext(ctx, self,
				"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"--trace", t, "--dir", dir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			cancel()
			if runErr != nil {
				ok = false
				fmt.Printf("# %s trace=%s: %v\n", w.Name, t, runErr)
			}
			var d runDetail
			data, err := os.ReadFile(detail)
			if err == nil {
				err = json.Unmarshal(data, &d)
			}
			if err != nil {
				ok = false
				fmt.Printf("# %s trace=%s: no result: %v\n", w.Name, t, err)
				continue
			}
			res.Header = d.Header
			res.Runs = append(res.Runs, &d)
		}
	}
	printTable(os.Stdout, "end-to-end metrics (tracing off)", endToEnd, res.Runs, false)
	printTable(os.Stdout, "per-layer metrics (traced run)", perLayer, res.Runs, true)
	fmt.Print(blindSpots)
	if err := writeJSONFile(out, res); err != nil {
		return false, err
	}
	fmt.Printf("result written to %s\n", out)
	return ok, nil
}

// blindSpots is printed with every suite result: what the seams cannot see.
const blindSpots = `blind spots of the traced run (stated, not hidden):
  - replica busy time under the shard runtime: inline handlers only enqueue, so core.replica.handle_* read 0 on keyspace_openloop and the work shows as core.replica.hold_us
  - gob decode inside TCPNet.readLoop is folded into transport.transit_us.*
  - gossip build and gossipcodec encode run inside the replica before Send and are part of core.replica.handle_us.gossip or the ticker, not transport.send_us.gossip
  - Keyed.Apply's map copy is outside the dtype seam (the keyspace lifts the inner type itself); dtype.keyed_apply_ns is an isolated probe of it
  - fsync cost is this sandbox's disk, not the program
`

// printTable prints one row per metric and one column per workload.
func printTable(w io.Writer, title string, defs []metricDef, runs []*runDetail, trace bool) {
	fmt.Fprintf(w, "\n%s\n%-44s %-6s", title, "metric", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %18s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, def := range defs {
		fmt.Fprintf(w, "%-44s %-6s", def.Name, def.Unit)
		for _, wl := range workloads {
			cell := "-"
			for _, r := range runs {
				if r.Workload == wl.Name && r.Trace == trace {
					if v, ok := r.Metrics[def.Name]; ok {
						cell = strconv.FormatFloat(v.Value, 'f', 3, 64)
					}
				}
			}
			fmt.Fprintf(w, " %18s", cell)
		}
		fmt.Fprintln(w)
	}
}

// --- compare ---

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res suiteResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// noisyHostSteal is the share of CPU time taken by the hypervisor above
// which a run's numbers say more about the host than about the program: on
// the reference box quiet runs read 0–0.5%, and runs at 5% were a third slow.
const noisyHostSteal = 0.02

// spread is the distance between the first and third quartile of a run's
// repetitions as a share of their median (0 for fewer than 3 values).
func spread(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	s := sorted(xs)
	return ratio(stats.Percentile(s, 0.75)-stats.Percentile(s, 0.25), stats.Percentile(s, 0.5))
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse B is than A, and the bound. A pair beyond its bound is a
// regression, unless the runs cannot tell: the repetitions of either side
// spread wider than the bound, or the hypervisor took more than
// noisyHostSteal of the CPU time during either run — then it is unresolved.
// It reports whether the comparison failed: a contract workload regressed,
// answered incorrectly, or is missing from one side. An extra workload is
// printed the same way but cannot fail the comparison, because it is outside
// the contract for not holding a bound.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSuite(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (commit %s seed %d)\nB: %s (commit %s seed %d)\n", pathA, a.Header.Commit, a.Header.Seed, pathB, b.Header.Commit, b.Header.Seed)
	fmt.Fprintf(w, "%-20s %-22s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "spread", "verdict")
	find := func(res *suiteResult, workload string) *runDetail {
		for _, r := range res.Runs {
			if r.Workload == workload && !r.Trace {
				return r
			}
		}
		return nil
	}
	failed := false
	for _, wl := range workloads {
		ra, rb := find(a, wl.Name), find(b, wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-20s MISSING from one side\n", wl.Name)
			failed = failed || !wl.Extra
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-20s INCORRECT run (A correct=%t failed=%d, B correct=%t failed=%d)\n", wl.Name, ra.Correct, ra.Failed, rb.Correct, rb.Failed)
			failed = failed || !wl.Extra
		}
		noisy := ra.StealFrac > noisyHostSteal || rb.StealFrac > noisyHostSteal
		if noisy {
			fmt.Fprintf(w, "%-20s noisy host: the hypervisor took %.1f%% (A) and %.1f%% (B) of the CPU time during these runs; measure again\n",
				wl.Name, 100*ra.StealFrac, 100*rb.StealFrac)
		}
		for _, def := range endToEnd {
			va, vb := ra.Metrics[def.Name].Value, rb.Metrics[def.Name].Value
			worse := ratio(vb-va, va)
			if def.Better == higher {
				worse = -worse
			}
			sp := math.Max(spread(ra.Reps[def.Name]), spread(rb.Reps[def.Name]))
			verdict := "ok"
			switch {
			case worse > def.Bound && (noisy || sp > def.Bound):
				verdict = "unresolved"
			case worse > def.Bound && wl.Extra:
				verdict = "regression (extra workload: not counted)"
			case worse > def.Bound:
				verdict = "REGRESSION"
				failed = true
			}
			fmt.Fprintf(w, "%-20s %-22s %14.4f %14.4f %+8.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.Name, def.Name, va, vb, 100*worse, 100*def.Bound, 100*sp, verdict)
		}
	}
	return failed, nil
}
