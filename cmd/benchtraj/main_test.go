package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testGated = []gatedMetric{
	{Name: "write_amp", Better: "lower", Bound: 0.25},
	{Name: "space_amp", Better: "lower", Bound: 0.15},
	{Name: "live_heap_mb", Better: "lower", Bound: 0.25},
}

// TestFoldFixtures: one pair of labelled result files (testdata) folds into
// one workload with its settings, both sides' runs and medians, and a
// verdict per gated metric; a file without a label is skipped.
func TestFoldFixtures(t *testing.T) {
	paths, err := filepath.Glob("testdata/result-*.json")
	if err != nil || len(paths) != 2 {
		t.Fatalf("fixtures: %v, %v", paths, err)
	}
	p, err := fold(append(paths, "testdata/result-crash-restart.json"), testGated)
	if err != nil {
		t.Fatal(err)
	}
	w := p.Workloads["crash-restart"]
	if len(p.Workloads) != 1 || w == nil {
		t.Fatalf("workloads %v", p.Workloads)
	}
	if w.Seed != 77 || w.Pairs != 1 || w.GOMAXPROCS != 2 || w.Seconds != 10 || w.Traced {
		t.Errorf("settings: seed %d, %d pairs, GOMAXPROCS %d, %v s, traced %v", w.Seed, w.Pairs, w.GOMAXPROCS, w.Seconds, w.Traced)
	}
	if !w.Correct["parent"] || !w.Correct["change"] || w.FailedOps["change"] != 0 {
		t.Errorf("correct %v, failed ops %v", w.Correct, w.FailedOps)
	}
	if s := w.Sides["change"]["restart_s"]; s == nil || s.Median != 0.5 || s.Unit != "s" {
		t.Errorf("the change's restart_s is %+v, want a median of 0.5 s", s)
	}
	wa := w.Gated["write_amp"]
	if wa == nil || math.Abs(wa.Change+0.25) > 1e-9 || wa.BetterPairs != 1 || !wa.Gain || !wa.WithinBound {
		t.Errorf("write_amp verdict %+v, want the median 25 %% lower in the one pair", wa)
	}
	if sa := w.Gated["space_amp"]; sa == nil || sa.Change != 0 || sa.BetterPairs != 0 || sa.Gain || !sa.WithinBound {
		t.Errorf("space_amp verdict %+v, want no change", sa)
	}
	if _, ok := w.Gated["setup_s"]; ok {
		t.Error("setup_s, not in the gated list, was judged")
	}
}

// TestFoldRefusesUnpairedRuns: a side with a run its other side lacks is
// an error, not a point.
func TestFoldRefusesUnpairedRuns(t *testing.T) {
	dir := t.TempDir()
	b, err := os.ReadFile("testdata/result-crash-restart.parent.1.json")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, name := range []string{"result-crash-restart.parent.1.json", "result-crash-restart.parent.2.json", "result-crash-restart.change.1.json"} {
		paths = append(paths, filepath.Join(dir, name))
		if err := os.WriteFile(paths[len(paths)-1], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fold(paths, testGated); err == nil || !strings.Contains(err.Error(), "pairs") {
		t.Fatalf("fold of unpaired runs: %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {1, 4}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile %v = %v, want %v", c.q, got, c.want)
		}
	}
}
