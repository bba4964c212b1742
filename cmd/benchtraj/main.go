// Command benchtraj folds labelled benchmark result files into one point
// of the repository's performance trajectory, BENCH_pr<N>.json: for each
// workload and side (the parent commit and the change), the per-run values
// and medians of every metric the result files carry, with the seed, the
// number of pairs, GOMAXPROCS and both commits; and for each gated metric
// (BENCHMARK.json's end_to_end list) the change of the median, the pairs
// in which the change was better and the spread of the parent's runs.
//
// A labelled result file is one benchmark/run.sh wrote as
// benchmark/out/result-<workload>.json, copied to
// result-<workload>.<side>.<n>.json, side "parent" or "change" and n the
// pair: `make benchpair` leaves them so. Other files are skipped.
//
// With -check it judges a point instead: one line per workload and gated
// metric, the parent's and the change's medians, and a non-zero exit when
// a change median is worse than its parent's by more than the metric's
// BENCHMARK.json bound, or when a workload lacks a gated metric on either
// side (`make benchdiff` checks the newest point).
//
// Usage:
//
//	benchtraj -pr <N> -parent <commit> -change <commit> -o BENCH_pr<N>.json benchmark/out/result-*.json
//	benchtraj -check BENCH_pr<N>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
)

func main() {
	pr := flag.Int("pr", 0, "the number of the change the point is for")
	parent := flag.String("parent", "", "the parent commit")
	change := flag.String("change", "", "the change's commit")
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark declaration naming the gated metrics")
	out := flag.String("o", "", "write the point here (default standard output)")
	check := flag.String("check", "", "judge this point's gated medians against the bounds and exit")
	flag.Parse()
	gated, err := readGated(*bench)
	if err == nil && *check != "" {
		var ok bool
		if ok, err = checkPoint(os.Stdout, *check, gated); err == nil && !ok {
			os.Exit(1)
		}
	} else if err == nil {
		var p *point
		if p, err = fold(flag.Args(), gated); err == nil {
			p.PR, p.ParentCommit, p.ChangeCommit = *pr, *parent, *change
			err = write(*out, p)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtraj:", err)
		os.Exit(1)
	}
}

// result is the part of a benchmark result file benchtraj reads.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Unbounded map[string]metric `json:"unbounded"`
	Env       struct {
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"env"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// gatedMetric is one of BENCHMARK.json's end-to-end metrics.
type gatedMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readGated(path string) ([]gatedMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []gatedMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return decl.EndToEnd, nil
}

// point is one BENCH_pr<N>.json.
type point struct {
	PR           int                  `json:"pr"`
	ParentCommit string               `json:"parent_commit"`
	ChangeCommit string               `json:"change_commit"`
	Workloads    map[string]*workload `json:"workloads"`
}

// workload is one workload's pairs.
type workload struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Pairs      int     `json:"pairs"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Sides holds "parent" and "change": per metric, the runs in pair
	// order and their median.
	Sides map[string]map[string]*series `json:"sides"`
	// Correct and FailedOps are per side: every run's audit held, and the
	// share of attempted operations that failed over all runs.
	Correct   map[string]bool     `json:"correct"`
	FailedOps map[string]float64  `json:"failed_ops_ratio"`
	Gated     map[string]*verdict `json:"gated"`
}

type series struct {
	Unit   string    `json:"unit"`
	Runs   []float64 `json:"runs"`
	Median float64   `json:"median"`
}

// verdict compares a gated metric's sides.
type verdict struct {
	Better string `json:"better"`
	// Change is the change's median over the parent's, less one.
	Change float64 `json:"median_change"`
	// BetterPairs counts the pairs in which the change's run was better
	// than its parent's.
	BetterPairs int `json:"better_pairs"`
	// ParentIQR is the distance between the quartiles of the parent's
	// runs; Gain reports whether the median moved the better way by more.
	ParentIQR float64 `json:"parent_iqr"`
	Gain      bool    `json:"gain_beyond_iqr"`
	// Bound is BENCHMARK.json's; WithinBound is false when the median got
	// worse by more than it.
	Bound       float64 `json:"bound"`
	WithinBound bool    `json:"within_bound"`
}

var labelled = regexp.MustCompile(`^result-(.+)\.(parent|change)\.([0-9]+)\.json$`)

// fold reads the labelled files among paths into a point.
func fold(paths []string, gated []gatedMetric) (*point, error) {
	type run struct {
		side string
		n    int
		r    result
	}
	byWorkload := map[string][]run{}
	for _, path := range paths {
		m := labelled.FindStringSubmatch(filepath.Base(path))
		if m == nil {
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload != m[1] {
			return nil, fmt.Errorf("%s holds workload %q", path, r.Workload)
		}
		n, _ := strconv.Atoi(m[3])
		byWorkload[r.Workload] = append(byWorkload[r.Workload], run{m[2], n, r})
	}
	if len(byWorkload) == 0 {
		return nil, fmt.Errorf("no labelled result files among %d paths", len(paths))
	}
	p := &point{Workloads: map[string]*workload{}}
	for name, runs := range byWorkload {
		sort.Slice(runs, func(i, j int) bool { return runs[i].n < runs[j].n })
		first := runs[0].r
		w := &workload{
			Seed: first.Seed, Seconds: first.Seconds, Traced: first.Traced, GOMAXPROCS: first.Env.GOMAXPROCS,
			Sides:   map[string]map[string]*series{},
			Correct: map[string]bool{"parent": true, "change": true}, FailedOps: map[string]float64{}, Gated: map[string]*verdict{},
		}
		pairs := map[string][]int{}
		attempted, failed := map[string]int64{}, map[string]int64{}
		for _, ru := range runs {
			r := ru.r
			if r.Seed != w.Seed || r.Seconds != w.Seconds || r.Traced != w.Traced || r.Env.GOMAXPROCS != w.GOMAXPROCS {
				return nil, fmt.Errorf("%s: pair %d of the %s side ran with other settings than pair %d", name, ru.n, ru.side, runs[0].n)
			}
			pairs[ru.side] = append(pairs[ru.side], ru.n)
			w.Correct[ru.side] = w.Correct[ru.side] && r.Correct
			attempted[ru.side] += r.Attempted
			failed[ru.side] += r.Failed
			side := w.Sides[ru.side]
			if side == nil {
				side = map[string]*series{}
				w.Sides[ru.side] = side
			}
			for _, set := range []map[string]metric{r.Metrics, r.Unbounded} {
				for k, v := range set {
					if side[k] == nil {
						side[k] = &series{Unit: v.Unit}
					}
					side[k].Runs = append(side[k].Runs, v.Value)
				}
			}
		}
		if !slices.Equal(pairs["parent"], pairs["change"]) {
			return nil, fmt.Errorf("%s: the parent ran pairs %v, the change %v", name, pairs["parent"], pairs["change"])
		}
		w.Pairs = len(pairs["change"])
		for side, ms := range w.Sides {
			for k, s := range ms {
				if len(s.Runs) != w.Pairs {
					return nil, fmt.Errorf("%s: %s has %d runs of %s, want %d", name, side, len(s.Runs), k, w.Pairs)
				}
				s.Median = quantile(s.Runs, 0.5)
			}
			w.FailedOps[side] = float64(failed[side]) / math.Max(1, float64(attempted[side]))
		}
		for _, g := range gated {
			ps, cs := w.Sides["parent"][g.Name], w.Sides["change"][g.Name]
			if ps == nil || cs == nil {
				continue
			}
			w.Gated[g.Name] = compare(g, ps, cs)
		}
		p.Workloads[name] = w
	}
	return p, nil
}

// compare judges the change's runs of g against the parent's.
func compare(g gatedMetric, parent, change *series) *verdict {
	sign := 1.0 // lower is better
	if g.Better == "higher" {
		sign = -1
	}
	v := &verdict{Better: g.Better, Bound: g.Bound}
	if parent.Median != 0 {
		v.Change = change.Median/parent.Median - 1
	}
	for i := range parent.Runs {
		if sign*(change.Runs[i]-parent.Runs[i]) < 0 {
			v.BetterPairs++
		}
	}
	v.ParentIQR = quantile(parent.Runs, 0.75) - quantile(parent.Runs, 0.25)
	v.Gain = sign*(parent.Median-change.Median) > v.ParentIQR
	v.WithinBound = sign*v.Change <= g.Bound
	return v
}

// checkPoint reads the point at path and prints, per workload and gated
// metric, both medians and the verdict; ok is false when some change
// median is worse than its parent's by more than the metric's bound, or
// when a workload lacks a gated metric on either side or its two sides
// hold different numbers of runs.
func checkPoint(w io.Writer, path string, gated []gatedMetric) (ok bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var p point
	if err := json.Unmarshal(b, &p); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	if len(p.Workloads) == 0 {
		return false, fmt.Errorf("%s holds no workload", path)
	}
	names := make([]string, 0, len(p.Workloads))
	for name := range p.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	ok = true
	for _, name := range names {
		wl := p.Workloads[name]
		for _, g := range gated {
			ps, cs := wl.Sides["parent"][g.Name], wl.Sides["change"][g.Name]
			if ps == nil || cs == nil || len(ps.Runs) == 0 || len(ps.Runs) != len(cs.Runs) {
				fmt.Fprintf(w, "%-20s %-13s parent %d runs, change %d runs  MISSING\n", name, g.Name, runs(ps), runs(cs))
				ok = false
				continue
			}
			v := compare(g, ps, cs)
			verdict := "ok"
			if !v.WithinBound {
				verdict, ok = "WORSE", false
			}
			fmt.Fprintf(w, "%-20s %-13s parent %10.4g  change %10.4g  %+6.1f %% (bound %.0f %%, %s is better)  %s\n",
				name, g.Name, ps.Median, cs.Median, 100*v.Change, 100*g.Bound, g.Better, verdict)
		}
	}
	return ok, nil
}

// runs is the number of runs s holds, 0 for a series the point lacks.
func runs(s *series) int {
	if s == nil {
		return 0
	}
	return len(s.Runs)
}

// quantile is the q-quantile of xs, interpolated between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func write(path string, p *point) error {
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path != "" {
		return os.WriteFile(path, b, 0o644)
	}
	_, err = os.Stdout.Write(b)
	return err
}
