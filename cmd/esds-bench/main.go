// Command esds-bench regenerates the paper's evaluation: the tables of
// E1–E9, each checked against the claim it reproduces (see the experiment
// index in DESIGN.md §3).
//
// Usage:
//
//	esds-bench             # run everything
//	esds-bench -exp e2     # run one experiment
//	esds-bench -list       # list experiments
//
// Experiments run on the deterministic discrete-event simulator, so the
// output is reproducible bit-for-bit. End-to-end performance on real
// sockets is measured by benchmark/run.sh, not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"esds/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("esds-bench", flag.ContinueOnError)
	which := fs.String("exp", "all", "experiment id (e1..e9) or 'all'")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %-45s %s\n", e.ID, e.Title, e.PaperRef)
		}
		return 0
	}
	var chosen []exp.Experiment
	if *which == "all" {
		chosen = exp.All()
	} else {
		e, ok := exp.ByID(*which)
		if !ok {
			fmt.Fprintf(os.Stderr, "esds-bench: unknown experiment %q (try -list)\n", *which)
			return 2
		}
		chosen = []exp.Experiment{e}
	}
	failures := 0
	for _, e := range chosen {
		table, err := e.Run()
		fmt.Printf("=== %s — %s (%s)\n\n", e.ID, e.Title, e.PaperRef)
		fmt.Println(table)
		if err != nil {
			failures++
			fmt.Printf("VERIFY FAILED: %v\n\n", err)
		} else {
			fmt.Printf("verify: OK\n\n")
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "esds-bench: %d experiment(s) failed verification\n", failures)
		return 1
	}
	return 0
}
