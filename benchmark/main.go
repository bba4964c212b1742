// Command benchmark is this repository's benchmark: six file-backed
// workloads driven closed-loop through the public API, end-to-end metrics
// measured with tracing off, and per-layer metrics taken from outside the
// program in a traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
)

// outDir holds everything a run writes: data directories (removed at the
// end), results, traces, goroutine dumps. It is relative to the working
// directory, which run.sh makes this directory.
const outDir = "out"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    uint64
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the form the benchmark
// contract fixes.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is one workload's full record, kept in out/results.json.
type report struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	Seconds      float64          `json:"seconds"`
	Traced       bool             `json:"traced"`
	FailedByKind map[string]int64 `json:"failed_by_kind,omitempty"`
	// LatencySamples is the number of timed ops behind each class's latency
	// percentiles (traced runs).
	LatencySamples map[string]int64 `json:"latency_samples,omitempty"`
	// Unbounded holds, in an untraced run, the end-to-end measurements that
	// carry no bound (they are per-layer metrics in BENCHMARK.json).
	Unbounded    map[string]metricValue `json:"unbounded,omitempty"`
	FailedChecks []string               `json:"failed_checks,omitempty"`
	Env          envRecord              `json:"env"`
	result
}

// envRecord says where the numbers were taken.
type envRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	DataDirFS  string `json:"data_dir_fs"`
}

func readEnv(dir string) envRecord {
	e := envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    numClients(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		DataDirFS:  "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		e.DataDirFS = fmt.Sprintf("statfs type %#x", st.Type)
	}
	return e
}

// numClients is min(2, nproc): the load comes from one process with no
// more clients than processors.
func numClients() int { return min(2, runtime.NumCPU()) }

func main() {
	var cfg config
	var traced bool
	var trace int
	var calibrate int
	var compare, child bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload and print its result line (default: all six)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run, reports the per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&traced, "traced", false, "same as -trace 1")
	flag.Uint64Var(&cfg.scale, "scale", 1, "divide every record count (smoke tests)")
	flag.IntVar(&calibrate, "calibrate", 0, "run N full sets with seeds 1..N and print each metric's spread")
	flag.BoolVar(&compare, "compare", false, "compare two results files: -compare old.json new.json")
	flag.BoolVar(&child, "child", false, "internal: the crash-restart workload's child process")
	flag.Parse()
	cfg.trace = traced || trace != 0

	var err error
	switch {
	case child:
		err = crashChild(cfg, flag.Arg(0))
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case calibrate > 0:
		err = calibrateRuns(cfg, calibrate)
	case cfg.workload == "":
		err = runSuite(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload in this process, prints its metric table and
// ends standard output with the result line.
func runOne(cfg config) error {
	w := findWorkload(cfg.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 || cfg.scale == 0 {
		return fmt.Errorf("-seconds and -scale must be positive")
	}
	dataDir := filepath.Join(outDir, fmt.Sprintf("data-%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)

	r := newRun(w.name, cfg)
	stopWatch := make(chan struct{})
	go r.watch(stopWatch)
	rep, err := r.measure(w, cfg, dataDir)
	close(stopWatch)
	if err != nil {
		return fmt.Errorf("workload %s: %w", w.name, err)
	}
	rep.Env = readEnv(dataDir)
	printTable(os.Stdout, rep)
	if err := writeJSON(filepath.Join(outDir, "result-"+w.name+".json"), rep); err != nil {
		return err
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.RemoveAll(dataDir)
		fmt.Fprintf(os.Stderr, "benchmark: workload %s: result checks failed: %v\n", w.name, rep.FailedChecks)
		os.Exit(2)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints every metric by name with value, unit and workload,
// then the latency sample counts and the failed ops by kind.
func printTable(f *os.File, rep *report) {
	fmt.Fprintf(f, "%-20s %-40s %16s %s\n", "workload", "metric", "value", "unit")
	for _, set := range []struct {
		metrics map[string]metricValue
		note    string
	}{{rep.Metrics, ""}, {rep.Unbounded, "  (no bound)"}} {
		names := make([]string, 0, len(set.metrics))
		for n := range set.metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := set.metrics[n]
			fmt.Fprintf(f, "%-20s %-40s %16.4f %s%s\n", rep.Workload, n, m.Value, m.Unit, set.note)
		}
	}
	for class, n := range rep.LatencySamples {
		fmt.Fprintf(f, "%-20s %s latencies: %d samples\n", rep.Workload, class, n)
	}
	for k, n := range rep.FailedByKind {
		fmt.Fprintf(f, "%-20s failed ops, %s: %d\n", rep.Workload, k, n)
	}
	fmt.Fprintf(f, "%-20s attempted %d, failed %d, correct %v\n", rep.Workload, rep.Attempted, rep.Failed, rep.Correct)
}
