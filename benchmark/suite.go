package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json this program reads: the
// end-to-end metrics' direction and regression bound.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json sits at the repository root, one level above this
// directory, which is the working directory.
const benchmarkJSON = "../BENCHMARK.json"

func readBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return nil, err
	}
	bf := new(benchmarkFile)
	if err := json.Unmarshal(b, bf); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	return bf, nil
}

// suiteFile is the schema of out/results.json and out/calibration.json:
// one report per workload run, several per workload after a calibration.
type suiteFile struct {
	Reports []report `json:"reports"`
}

// runSet runs every workload once, each in a process of its own (so heap
// and set-up numbers start clean), and returns their reports.
func runSet(cfg config) ([]report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var reports []report
	for _, w := range workloads {
		args := []string{"-workload", w.name,
			"-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-scale", strconv.FormatUint(cfg.scale, 10)}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		b, err := os.ReadFile(filepath.Join(outDir, "result-"+w.name+".json"))
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// runSuite runs all six workloads and writes out/results.json (or
// out/results-traced.json).
func runSuite(cfg config) error {
	reports, err := runSet(cfg)
	if err != nil {
		return err
	}
	name := "results.json"
	if cfg.trace {
		name = "results-traced.json"
	}
	path := filepath.Join(outDir, name)
	fmt.Println("wrote", path)
	return writeJSON(path, suiteFile{reports})
}

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (exclusive method), which is
// what the benchmark driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(2), q(3)
}

// pairStats summarises the runs of one (workload, metric) pair.
type pairStats struct {
	n                int
	median, q1, q3   float64
	spread, rangeRel float64 // (q3-q1)/median and (max-min)/median
}

func summarizePair(v []float64) pairStats {
	q1, med, q3 := quartiles(v)
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return pairStats{n: len(v), median: med, q1: q1, q3: q3, spread: ratio(q3-q1, med), rangeRel: ratio(hi-lo, med)}
}

// pairValues groups the reports' values by workload and metric.
func pairValues(reports []report) map[[2]string][]float64 {
	vals := map[[2]string][]float64{}
	for _, rep := range reports {
		for _, set := range []map[string]metricValue{rep.Metrics, rep.Unbounded} {
			for name, m := range set {
				k := [2]string{rep.Workload, name}
				vals[k] = append(vals[k], m.Value)
			}
		}
	}
	return vals
}

func sortedPairs(vals map[[2]string][]float64) [][2]string {
	keys := make([][2]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

// calibrateRuns runs sets full sets at this commit, seeds 1..sets, prints
// each pair's median, quartiles and spreads, writes out/calibration.json,
// and fails when an end-to-end pair's quartile spread exceeds its bound.
func calibrateRuns(cfg config, sets int) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	gated := map[string]bool{}
	for _, w := range bf.Workloads {
		gated[w.Name] = true
	}
	var all []report
	for s := 1; s <= sets; s++ {
		cfg.seed = int64(s)
		reports, err := runSet(cfg)
		if err != nil {
			return err
		}
		all = append(all, reports...)
	}
	if err := writeJSON(filepath.Join(outDir, "calibration.json"), suiteFile{all}); err != nil {
		return err
	}
	vals := pairValues(all)
	var over []string
	fmt.Printf("%-20s %-40s %3s %14s %14s %14s %8s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, k := range sortedPairs(vals) {
		st := summarizePair(vals[k])
		bound, bounded := bounds[k[1]]
		mark := ""
		// setup_s is judged on its median only, as the driver does, and a
		// workload outside BENCHMARK.json is not judged at all.
		if bounded && gated[k[0]] && k[1] != "setup_s" && st.spread > bound {
			mark = "  OVER"
			over = append(over, k[0]+"/"+k[1])
		}
		boundText := ""
		if bounded {
			boundText = fmt.Sprintf("%.2f", bound)
		}
		fmt.Printf("%-20s %-40s %3d %14.4f %14.4f %14.4f %8.4f %8.4f %6s%s\n",
			k[0], k[1], st.n, st.median, st.q1, st.q3, st.spread, st.rangeRel, boundText, mark)
	}
	if len(over) > 0 {
		return fmt.Errorf("%d end-to-end pairs spread wider than their bound: %v", len(over), over)
	}
	return nil
}

// compareFiles prints, per (workload, metric) pair, the change of the
// median from the old results file to the new one. An end-to-end pair that
// got worse by more than its bound is a regression (exit status 1) unless
// either side's recorded quartile spread exceeds the bound, which makes it
// unresolved. Per-layer metrics have no bound and are shown for reading.
func compareFiles(oldPath, newPath string) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	load := func(path string) (map[[2]string][]float64, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f suiteFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return pairValues(f.Reports), nil
	}
	oldVals, err := load(oldPath)
	if err != nil {
		return err
	}
	newVals, err := load(newPath)
	if err != nil {
		return err
	}
	type rule struct {
		lowerBetter bool
		bound       float64
	}
	rules := map[string]rule{}
	for _, m := range bf.EndToEnd {
		rules[m.Name] = rule{m.Better == "lower", m.Bound}
	}
	var regressions []string
	fmt.Printf("%-20s %-40s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, k := range sortedPairs(oldVals) {
		nv, ok := newVals[k]
		if !ok {
			continue
		}
		o, n := summarizePair(oldVals[k]), summarizePair(nv)
		change := ratio(n.median-o.median, o.median)
		verdict := ""
		if r, ok := rules[k[1]]; ok {
			worse := change
			if !r.lowerBetter {
				worse = -change
			}
			switch {
			case o.spread > r.bound || n.spread > r.bound:
				verdict = "unresolved: spread exceeds bound"
			case worse > r.bound:
				verdict = "REGRESSION"
				regressions = append(regressions, k[0]+"/"+k[1])
			case worse < -r.bound:
				verdict = "better"
			default:
				verdict = "within bound"
			}
		}
		fmt.Printf("%-20s %-40s %14.4f %14.4f %+8.1f%%  %s\n", k[0], k[1], o.median, n.median, 100*change, verdict)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regressions: %v", len(regressions), regressions)
	}
	return nil
}
