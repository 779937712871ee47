package main

import "testing"

func TestList(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
}

func TestUnknownExperiment(t *testing.T) {
	// e10–e17 were wall-clock experiments; benchmark/run.sh measures that.
	for _, id := range []string{"e99", "e10", "e12", "e17"} {
		if code := run([]string{"-exp", id}); code != 2 {
			t.Fatalf("-exp %s: exit = %d, want 2", id, code)
		}
	}
}

func TestBadFlag(t *testing.T) {
	if code := run([]string{"-definitely-not-a-flag"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestRunSingleFastExperiment(t *testing.T) {
	// E4 is the fastest experiment (~ms); it exercises the whole
	// run-verify-print path.
	if code := run([]string{"-exp", "e4"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
}
