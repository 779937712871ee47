// Command benchmark is the repository's benchmark of record: four named
// workloads, end-to-end metrics measured with tracing off, and a traced run
// that attributes an operation's time to the layers it crosses. README.md in
// this directory is the glossary; BENCHMARK.json at the repository root is
// the contract.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//	benchmark --seed N [--out FILE]                           every workload, untraced then traced, one child process each
//	benchmark --compare A.json B.json                         compare two result files against the bounds
//	benchmark --spec                                          print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

const (
	workDir    = "benchmark/.work"
	runSeconds = 25
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run once; empty runs the whole suite")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "seconds of measurement per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, wrappers off; 1: per-layer metrics from a traced run")
		dir      = flag.String("dir", workDir, "directory for journals, span files and suite results (not tmpfs, if fsync cost is to mean anything)")
		out      = flag.String("out", "", "suite mode: result file (default <dir>/result-seed<N>.json)")
		compare  = flag.Bool("compare", false, "compare two suite result files: benchmark --compare A.json B.json")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if n := runtime.NumCPU(); n < 4 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(4)
	}

	switch {
	case *spec:
		if err := writeSpec(os.Stdout); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload == "":
		ok, err := runSuite(*seed, *seconds, *dir, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		rc := &runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, reps: defaultReps, dir: *dir, log: os.Stdout, probeIters: defaultProbeIters, warmScale: 1}
		d, err := runWorkload(rc)
		if err != nil {
			fatal(err)
		}
		if err := writeJSONFile(detailPath(*dir, *workload, *seed, rc.trace), d); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(d.report())
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !d.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: the zero Bound is omitted
}

func currentSpec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if !w.Extra {
			s.Workloads = append(s.Workloads, w)
		}
	}
	return s
}

func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(currentSpec())
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func detailPath(dir, workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("detail-%s-seed%d-trace%d.json", workload, seed, t))
}
