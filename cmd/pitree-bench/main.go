// Command pitree-bench regenerates the experiment tables and figure
// series of DESIGN.md / EXPERIMENTS.md.
//
// Usage:
//
//	pitree-bench                 # run every experiment
//	pitree-bench -exp T1,T4,T10  # run a subset
//	pitree-bench -quick          # smaller sizes (default true)
//	pitree-bench -full           # larger sizes for stabler numbers
//	pitree-bench -exp T2 -cpuprofile t2.prof  # CPU profile for go tool pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (T1..T12, F1, F2) or 'all'")
	full := flag.Bool("full", false, "larger workload sizes (slower, stabler numbers)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiments run to this file")
	flag.Parse()

	p := bench.Quick()
	if *full {
		p.Preload = 200_000
		p.OpsPerThread = 100_000
		p.Threads = []int{1, 2, 4, 8, 16, 32}
	}

	runners := []struct {
		id  string
		fn  func()
		doc string
	}{
		{"T1", func() { bench.T1SearchScaling(os.Stdout, p) }, "search scaling vs baselines"},
		{"T2", func() { bench.T2MixedScaling(os.Stdout, p) }, "mixed scaling vs baselines"},
		{"F1", func() { bench.F1Figure(os.Stdout, p) }, "throughput curves (CSV)"},
		{"T3", func() { bench.T3SMORate(os.Stdout, p) }, "decomposed vs serial SMOs"},
		{"F2", func() { bench.F2Crossover(os.Stdout, p) }, "SMO-rate crossover (CSV)"},
		{"T4", func() { bench.T4CrashMatrix(os.Stdout, p) }, "crash at every log boundary"},
		{"T5", func() { bench.T5LazyCompletion(os.Stdout, p) }, "lazy completion after crash"},
		{"T6", func() { bench.T6LatchHold(os.Stdout, p) }, "index latch hold times"},
		{"T7", func() { bench.T7MoveLocks(os.Stdout, p) }, "move locks: page vs logical undo"},
		{"T8", func() { bench.T8Invariants(os.Stdout, p) }, "CNS vs CP regimes"},
		{"T9", func() { bench.T9SavedPath(os.Stdout, p) }, "saved-path verification"},
		{"T10", func() { bench.T10TSB(os.Stdout, p) }, "TSB-tree time splits"},
		{"T11", func() { bench.T11Spatial(os.Stdout, p) }, "multi-attribute clipping"},
		{"T12", func() { bench.T12Recovery(os.Stdout, p) }, "recovery & relative durability"},
	}

	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}

	var chosen []int
	for i, r := range runners {
		if all || want[r.id] {
			chosen = append(chosen, i)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; known ids:", *expFlag)
		for _, r := range runners {
			fmt.Fprintf(os.Stderr, " %s", r.id)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pitree-bench:", err)
			os.Exit(1)
		}
		defer stop()
	}
	for _, i := range chosen {
		r := runners[i]
		fmt.Printf("\n=== %s: %s ===\n", r.id, r.doc)
		r.fn()
	}
}

// startCPUProfile starts writing a CPU profile to path; the returned
// function stops it and closes the file.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pitree-bench: cpu profile:", err)
		}
	}, nil
}
