package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// The crash-restart workload. A child process (this binary, -child) sets
// the engine up, runs a fixed number of write transactions, leaves some
// transactions open with their updates forced to the log, writes what it
// measured and which commits were acknowledged, prints "ready" and waits.
// The parent kills it and times restart recovery on copies of the
// directory it left, then audits the recovered tree against the
// acknowledgements.
//
// A killed process loses nothing the operating system already has, so this
// measures recovery work, not power-loss durability; that stays with the
// repository's realcrash and torture gates.

// childReport is what the child hands the parent, as JSON in a file.
type childReport struct {
	Dir    string // the engine's data directory
	SetupS float64
	// Phase is what a client saw of the op phase (untraced child): its
	// throughput, failure share and write latencies.
	Phase        map[string]float64
	Attempted    int64
	Failed       int64
	FailedByKind map[string]int64
	// LatencySamples, like Layer and MeanOpNs, is filled by a traced child.
	LatencySamples map[string]int64
	UserBytes      int64
	WrittenBytes   float64
	// Acked maps each key a client wrote to the sequence number of its
	// last acknowledged commit; Heads are the clients' insert counters.
	Acked map[uint64]uint64
	Heads []uint64
	// Layer holds the counter and span metrics of a traced child, and
	// MeanOpNs its mean traced operation time.
	Layer    map[string]float64
	MeanOpNs float64
}

func childReportPath(dir string) string { return filepath.Join(dir, "child-report.json") }

// crashChild is the child process: root is its scratch directory.
func crashChild(cfg config, root string) error {
	w := findWorkload(cfg.workload)
	if w == nil || !w.crash || root == "" {
		return fmt.Errorf("-child needs the crash workload and a directory")
	}
	n := w.recordsAt(cfg.scale)
	r := newRun(w.name, cfg)
	go r.watch(nil) // a stalled child exits by itself; the parent sees its pipe close
	rep := &report{FailedByKind: map[string]int64{}, LatencySamples: map[string]int64{}}
	out := childReport{Acked: map[uint64]uint64{}, Layer: map[string]float64{}}

	v, setupS, err := setUpMedian(w, root, n)
	if err != nil {
		return err
	}
	out.Dir, out.SetupS = v.dir, setupS
	for _, c := range v.clientSet() {
		c.acked = map[uint64]uint64{}
	}
	opsPerClient := int(float64(crashOpsPerSecond)*cfg.seconds) / v.clients
	before := v.readCounters()
	var measured *phaseResult
	if cfg.trace {
		var traced *phaseResult
		if measured, traced, err = r.tracedPair(v, cfg, opsPerClient/2, out.Layer, rep); err != nil {
			return err
		}
		out.MeanOpNs = traced.trace.hist[spOp].mean()
		out.UserBytes = traced.userBytes
	} else {
		measured, err = r.runPhase(v, phaseSpec{name: "measured", mix: w.mix, opsPerClient: opsPerClient, seed: cfg.seed*16 + 1})
		if err != nil {
			return err
		}
		rep.count(measured)
	}
	out.UserBytes += measured.userBytes
	out.WrittenBytes = v.readCounters().physicalBytes() - before.physicalBytes()
	if !cfg.trace {
		out.Phase = map[string]float64{}
		phaseMetrics(out.Phase, measured)
	}
	out.Attempted, out.Failed, out.FailedByKind = rep.Attempted, rep.Failed, rep.FailedByKind
	out.LatencySamples = rep.LatencySamples
	for _, c := range v.clientSet() {
		for k, seq := range c.acked {
			out.Acked[k] = seq
		}
		out.Heads = append(out.Heads, c.head)
	}

	// The losers: open transactions whose updates are in the stable log.
	// Their keys are distinct, so they never wait for each other, and their
	// sequence numbers are ones no client uses.
	c := v.clientSet()[0]
	for t := uint64(0); t < loserTxns; t++ {
		tx := v.e.TM.Begin()
		for j := uint64(0); j < loserUpdates; j++ {
			k := keyOf(t*loserUpdates+j, v.n)
			val := make([]byte, valueLen)
			fillValue(val, k, 1<<63|t)
			if err := v.core.Update(tx, c.key(k), val); err != nil {
				return fmt.Errorf("loser update: %w", err)
			}
		}
	}
	if err := v.e.Log.ForceAll(); err != nil {
		return fmt.Errorf("force log: %w", err)
	}

	if err := writeJSON(childReportPath(root), &out); err != nil {
		return err
	}
	fmt.Println("ready")
	select {} // until the parent's SIGKILL
}

// measureCrash is the parent side.
func (r *run) measureCrash(w *workload, cfg config, dataDir string, n uint64, rep *report) error {
	childRoot := filepath.Join(dataDir, "child")
	if err := os.MkdirAll(childRoot, 0o755); err != nil {
		return err
	}
	cr, err := r.runChildAndKill(cfg, childRoot)
	if err != nil {
		return err
	}
	rep.Attempted, rep.Failed = cr.Attempted, cr.Failed
	for k, v := range cr.FailedByKind {
		rep.FailedByKind[k] = v
	}
	for k, v := range cr.LatencySamples {
		rep.LatencySamples[k] = v
	}

	// Restart the same crashed state restartRuns times, each on its own
	// copy; keep the last recovered engine for the audit.
	runs := restartRuns
	if cfg.trace {
		runs = 1
	}
	var v *env
	var rt restartTimes
	totals := make([]float64, runs)
	for i := range totals {
		dir := cr.Dir
		if i < runs-1 {
			dir = filepath.Join(dataDir, fmt.Sprintf("copy-%d", i))
			if err := copyDir(dir, cr.Dir); err != nil {
				return fmt.Errorf("copy crashed directory: %w", err)
			}
		}
		if v, rt, err = openEnv(w, dir, n, false); err != nil {
			return fmt.Errorf("restart after crash: %w", err)
		}
		totals[i] = rt.total()
		if i < runs-1 {
			if err := v.e.Close(); err != nil {
				return fmt.Errorf("close after restart: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}

	// The audit: every acknowledged key holds its last acknowledged value,
	// every other preloaded key its preloaded one (so no loser's update
	// survived), nothing else exists, and Verify passes.
	for i, c := range v.clientSet() {
		c.head = cr.Heads[i]
	}
	want := make(map[uint64]uint64, int(n)+len(cr.Acked))
	for k := uint64(0); k < n; k++ {
		want[k] = 0
	}
	for k, seq := range cr.Acked {
		want[k] = seq
	}
	if err := v.checkTree(rep, "after crash recovery", want); err != nil {
		return err
	}
	rep.check(rt.stats.LoserTxns == loserTxns, "recovery rolled back %d loser transactions, want %d", rt.stats.LoserTxns, loserTxns)

	if cfg.trace {
		m := cr.Layer
		recoveryMetrics(m, rt)
		if err := r.tailLatencies(v, cfg, m, rep); err != nil {
			return err
		}
		if err := probes(v, m, dataDir); err != nil {
			return err
		}
		attributionMetrics(m, cr.MeanOpNs)
		if m["engine.close_ms"], err = closeTimed(v); err != nil {
			return err
		}
		rep.setLayerMetrics(m)
		return nil
	}

	rep.set("setup_s", cr.SetupS)
	cr.Phase["restart_s"] = slices.Min(totals)
	rep.setUnbounded(cr.Phase)
	rep.set("write_amp", cr.WrittenBytes/float64(cr.UserBytes))
	rep.set("live_heap_mb", liveHeapMB())
	if _, err := v.e.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := closeTimed(v); err != nil {
		return err
	}
	size, err := dirBytes(v.dir)
	if err != nil {
		return err
	}
	rep.set("space_amp", float64(size)/float64(v.liveUserBytes()))
	return nil
}

// runChildAndKill starts the child, waits for "ready", kills it with
// SIGKILL, waits for it to end, and reads its report.
func (r *run) runChildAndKill(cfg config, root string) (*childReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scale", strconv.FormatUint(cfg.scale, 10)}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, append(args, root)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start child: %w", err)
	}
	// Should the watchdog end this process, the child goes first.
	r.onExit.Store(&cmd.Process)
	defer r.onExit.Store(nil)
	ready := false
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "ready" {
			ready = true
			break
		}
	}
	_ = cmd.Process.Kill() // already gone if it failed before "ready"
	_, _ = io.Copy(io.Discard, stdout)
	waitErr := cmd.Wait()
	if !ready {
		return nil, fmt.Errorf("child ended before it was ready: %v", waitErr)
	}
	b, err := os.ReadFile(childReportPath(root))
	if err != nil {
		return nil, err
	}
	cr := new(childReport)
	if err := json.Unmarshal(b, cr); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return cr, nil
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}
