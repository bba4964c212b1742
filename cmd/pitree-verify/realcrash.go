// Real-crash torture mode: instead of simulating a crash by freezing an
// in-memory stable image, each round forks a CHILD PROCESS running a
// seeded transactional workload against real files — segmented WAL plus
// checksummed page files — and SIGKILLs it at a seeded moment. The
// parent then recovers from whatever bytes actually reached the page
// cache and audits the exact durability oracle the child streamed over
// its stdout pipe.
//
// The ack protocol makes the oracle exact despite the asynchronous
// kill. Each worker is sequential and writes one line per event, every
// line a single write(2) (atomic for pipes):
//
//	try <w> <k> <op> <val>   immediately before Commit
//	ack <w> <k>              Commit returned nil — durable, must survive
//	nak <w> <k>              Commit failed — rolled back, must be absent
//	abt <w> <k> <val>        deliberate abort — must be absent
//	closing                  workload finished; shutdown begins
//	done                     engine closed cleanly
//
// A try is printed before Commit starts, so any value that reaches the
// tree has its try on the pipe; an ack is printed after Commit returns,
// so at most one COMMIT per worker is unresolved at the kill — exactly
// the one that may have been in flight. A vectorized batch commit
// prints one try per batch key before Commit and one ack/nak per key
// after, so a worker's unresolved tries are always the key set of that
// single in-flight commit. Recovery must show, per touched key, either
// the last acked state or (for an unresolved try's key only) the
// in-flight state — and because the in-flight commit is atomic, its
// keys must resolve uniformly: all applied or all rolled back. A mixed
// outcome is a partial batch. Everything else is a ghost or a loss.
//
// Every fourth round aims the kill at the shutdown instead: the workload
// is short, and the SIGKILL lands a seeded delay after the child's
// closing line — inside Engine.Close, between its flush, the shutdown
// checkpoint's force, the master writes and the segment unlinks. Nothing
// is in flight by then, so the same audit demands every ack exactly.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// realDraws derives the round's maintenance posture from the seed alone
// so parent and child agree without plumbing more flags.
func realDraws(seed int64) tortDraws {
	rng := rand.New(rand.NewSource(seed ^ 0x5eedc0de))
	return tortDraws{
		consolidation: rng.Intn(2) == 0,
		reclaim:       rng.Intn(2) == 0,
		govBudget:     []int{0, 64, 256}[rng.Intn(3)],
	}
}

func findTreeKind(name string) (treeKind, bool) {
	for _, k := range tortureKinds() {
		if k.name == name {
			return k, true
		}
	}
	return treeKind{}, false
}

// --- child ---------------------------------------------------------------

// runRealChild is the forked workload process. It opens a file-backed
// engine in dir, runs the seeded concurrent workload streaming the ack
// protocol to stdout, and — if the parent's SIGKILL never arrives —
// closes cleanly and prints done.
func runRealChild(dir, treeName, syncPol string, seed int64, workers, ops int, pageOriented bool) error {
	kind, ok := findTreeKind(treeName)
	if !ok {
		return fmt.Errorf("unknown tree kind %q", treeName)
	}
	pol := wal.SyncAlways
	if syncPol == "never" {
		pol = wal.SyncNever
	}
	e, recovered, err := engine.Open(engine.Options{
		DataDir:           dir,
		SegmentSize:       1 << 15,
		SlotSize:          4096,
		Sync:              pol,
		PoolCapacity:      40,
		PageOriented:      pageOriented,
		WriteBackInterval: time.Millisecond,
		PrefetchWindow:    8,
	})
	if err != nil {
		return err
	}
	if recovered {
		return fmt.Errorf("fresh round dir claims a prior incarnation")
	}
	draws := realDraws(seed)
	tree, err := kind.create(e, draws)
	if err != nil {
		return fmt.Errorf("create: %v", err)
	}

	var outMu sync.Mutex
	emit := func(format string, args ...any) {
		outMu.Lock()
		fmt.Fprintf(os.Stdout, format+"\n", args...)
		outMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed ^ int64(w+1)*7919))
			present := map[uint64]bool{}
			seq := 0
			for i := 0; i < ops; i++ {
				if e.Degraded() {
					return
				}
				// Some commits are vectorized batches: one try per batch key
				// before Commit, one ack/nak per key after, so the kill can
				// land with the whole batch in flight and recovery is audited
				// for all-or-nothing resolution.
				if bt, isBatcher := tree.(tortBatcher); isBatcher && wrng.Intn(5) == 0 {
					n := 2 + wrng.Intn(7)
					bks := make([]uint64, 0, n)
					bvs := make([][]byte, 0, n)
					inBatch := make(map[uint64]bool, n)
					for len(bks) < n {
						k := uint64(w + workers*wrng.Intn(ops/2+1))
						if inBatch[k] {
							continue
						}
						inBatch[k] = true
						seq++
						bks = append(bks, k)
						bvs = append(bvs, []byte(fmt.Sprintf("v%d.%d.%d", w, k, seq)))
					}
					tx := e.TM.Begin()
					if err := bt.insertBatch(tx, bks, bvs); err != nil {
						_ = tx.Abort()
						continue
					}
					if wrng.Intn(8) == 0 {
						_ = tx.Abort()
						for j, k := range bks {
							emit("abt %d %d %s", w, k, bvs[j])
						}
						continue
					}
					for j, k := range bks {
						emit("try %d %d put %s", w, k, bvs[j])
					}
					if err := tx.Commit(); err != nil {
						for _, k := range bks {
							emit("nak %d %d", w, k)
						}
						continue
					}
					for _, k := range bks {
						emit("ack %d %d", w, k)
						present[k] = true
					}
					continue
				}
				k := uint64(w + workers*wrng.Intn(ops/2+1))
				tx := e.TM.Begin()
				del := present[k] && wrng.Intn(2) == 0
				val := "-"
				var opErr error
				if del {
					opErr = tree.remove(tx, k)
				} else {
					seq++
					val = fmt.Sprintf("v%d.%d.%d", w, k, seq)
					opErr = tree.insert(tx, k, []byte(val))
				}
				if opErr != nil {
					_ = tx.Abort()
					continue
				}
				if wrng.Intn(8) == 0 {
					_ = tx.Abort()
					emit("abt %d %d %s", w, k, val)
					continue
				}
				op := "put"
				if del {
					op = "del"
				}
				emit("try %d %d %s %s", w, k, op, val)
				if err := tx.Commit(); err != nil {
					emit("nak %d %d", w, k)
					continue
				}
				emit("ack %d %d", w, k)
				present[k] = !del
			}
		}(w)
	}

	// Background chaos: real flushes and checkpoints, which on this
	// engine also fsync page files and recycle WAL segments under fire.
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		crng := rand.New(rand.NewSource(seed * 31))
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch crng.Intn(4) {
			case 0:
				_, _ = e.FlushAll()
			case 1:
				_, _ = e.Checkpoint()
			case 2:
				tree.drain()
			case 3:
				// Full scans keep the pool's read-ahead busy against real
				// page files so the kill can land with prefetches in flight.
				if sc, isScanner := tree.(tortScanner); isScanner {
					_ = sc.scanSome()
				}
			}
			var c roundCounts
			c.add(e.Pools())
			emit("pool %d %d", c.elisions, c.replays)
			time.Sleep(time.Duration(200+crng.Intn(1800)) * time.Microsecond)
		}
	}()

	wg.Wait()
	close(stop)
	chaosWG.Wait()
	emit("closing")
	tree.drain()
	tree.close()
	if err := e.Close(); err != nil {
		return fmt.Errorf("close: %v", err)
	}
	emit("done")
	return nil
}

// --- parent --------------------------------------------------------------

// realTry is one in-flight-capable commit attempt.
type realTry struct {
	k   uint64
	del bool
	val string
}

// realOracle is the durability contract parsed from one child's pipe.
type realOracle struct {
	acked []map[uint64]oracleVal // per worker: last acked state per key
	tried []map[uint64]bool      // per worker: keys with any resolved-or-not attempt
	// pending holds each worker's unresolved tries. Workers are
	// sequential, so all of a worker's entries belong to the single commit
	// that was in flight at the kill: one entry for a single-key commit, a
	// key set for a batch commit.
	pending [][]realTry
	clean   bool        // child printed done (clean close, no kill)
	pool    roundCounts // the child's last pool line
}

func parseRealAcks(out []byte, workers int) (*realOracle, error) {
	o := &realOracle{
		acked:   make([]map[uint64]oracleVal, workers),
		tried:   make([]map[uint64]bool, workers),
		pending: make([][]realTry, workers),
	}
	for w := 0; w < workers; w++ {
		o.acked[w] = map[uint64]oracleVal{}
		o.tried[w] = map[uint64]bool{}
	}
	lines := strings.Split(string(out), "\n")
	// SIGKILL can only cut the stream between lines (each line is one
	// write), but guard against a torn last line anyway.
	if n := len(lines); n > 0 && lines[n-1] != "" {
		lines = lines[:n-1]
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if f[0] == "pool" {
			if _, err := fmt.Sscanf(line, "pool %d %d", &o.pool.elisions, &o.pool.replays); err != nil {
				return nil, fmt.Errorf("bad pool line %q", line)
			}
			continue
		}
		var w int
		var k uint64
		if len(f) >= 3 {
			wi, err1 := strconv.Atoi(f[1])
			kv, err2 := strconv.ParseUint(f[2], 10, 64)
			if err1 != nil || err2 != nil || wi < 0 || wi >= workers {
				return nil, fmt.Errorf("bad ack line %q", line)
			}
			w, k = wi, kv
		}
		switch f[0] {
		case "try":
			if len(f) != 5 {
				return nil, fmt.Errorf("protocol violation at %q", line)
			}
			// Tries stack only within one batch commit, whose keys are
			// distinct by construction.
			for _, q := range o.pending[w] {
				if q.k == k {
					return nil, fmt.Errorf("duplicate pending try at %q", line)
				}
			}
			o.pending[w] = append(o.pending[w], realTry{k: k, del: f[3] == "del", val: f[4]})
			o.tried[w][k] = true
		case "ack", "nak":
			idx := -1
			for i, q := range o.pending[w] {
				if q.k == k {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("%s without matching try: %q", f[0], line)
			}
			if p := o.pending[w][idx]; f[0] == "ack" {
				if p.del {
					o.acked[w][k] = oracleVal{}
				} else {
					o.acked[w][k] = oracleVal{present: true, val: p.val}
				}
			}
			o.pending[w] = append(o.pending[w][:idx], o.pending[w][idx+1:]...)
		case "abt":
			if len(f) != 4 {
				return nil, fmt.Errorf("bad abt line %q", line)
			}
			o.tried[w][k] = true
		case "closing":
		case "done":
			o.clean = true
		default:
			return nil, fmt.Errorf("unknown ack line %q", line)
		}
	}
	return o, nil
}

// anyAcked reports whether any commit was ever acknowledged.
func (o *realOracle) anyAcked() bool {
	for _, m := range o.acked {
		if len(m) > 0 {
			return true
		}
	}
	return false
}

// auditRecovered checks the recovered tree against the ack oracle: every
// key any worker touched must show its last acked state — or, for an
// unresolved try's key, the in-flight commit's state. The unresolved
// tries of one worker all belong to a single atomic commit, so they must
// also resolve uniformly: a batch that applied some keys and rolled back
// others is a partial-batch ghost. Anything else is a lost commit or a
// ghost.
func (o *realOracle) auditRecovered(tree tortTree) error {
	for w := range o.tried {
		applied, rolledBack := 0, 0
		for k := range o.tried[w] {
			got, ok, err := tree.lookup(k)
			if err != nil {
				return fmt.Errorf("lookup %d: %v", k, err)
			}
			entry, acked := o.acked[w][k]
			matchOld := false
			if acked && entry.present {
				matchOld = ok && string(got) == entry.val
			} else {
				// Acked-deleted or never acked: must be absent.
				matchOld = !ok
			}
			var p *realTry
			for i := range o.pending[w] {
				if o.pending[w][i].k == k {
					p = &o.pending[w][i]
					break
				}
			}
			matchNew := false
			if p != nil {
				// The in-flight commit may have made it down before the
				// kill; its exact outcome is the only other legal state.
				if p.del {
					matchNew = !ok
				} else {
					matchNew = ok && string(got) == p.val
				}
			}
			if p != nil && matchNew != matchOld {
				// Unambiguous resolution of one in-flight key (a delete of a
				// never-acked key matches both ways and constrains nothing).
				if matchNew {
					applied++
				} else {
					rolledBack++
				}
			}
			if matchOld || matchNew {
				continue
			}
			if acked && entry.present {
				return fmt.Errorf("durability violation: acked key %d = %q ok=%v, committed %q", k, got, ok, entry.val)
			}
			return fmt.Errorf("ghost: key %d = %q present after recovery, last acked state was absent", k, got)
		}
		if applied > 0 && rolledBack > 0 {
			return fmt.Errorf("partial batch: worker %d's in-flight commit applied %d keys but rolled back %d", w, applied, rolledBack)
		}
	}
	return nil
}

func runRealCrash(cfg tortureConfig) error {
	bin, err := os.Executable()
	if err != nil {
		return fmt.Errorf("self path: %v", err)
	}
	kinds := tortureKinds()
	var total roundCounts
	var slowest time.Duration
	slowestRound := 0
	for round := 0; round < cfg.rounds; round++ {
		seed := cfg.seed + int64(round)*999983
		kind := kinds[round%len(kinds)]
		rng := rand.New(rand.NewSource(seed))
		syncPol := []string{"always", "never"}[rng.Intn(2)]
		killAfter := time.Duration(2+rng.Intn(150)) * time.Millisecond
		recWorkers := 1 << rng.Intn(4)
		rcfg, at, atClose := cfg, "start", round%4 == 3
		if atClose {
			// A Close of this little state takes 1.5 to 4 ms.
			killAfter = time.Duration(rng.Intn(2500)) * time.Microsecond
			rcfg.ops, at = cfg.ops/4, "closing"
		}
		// Named before it runs, as a torture round is; its watchdog kills
		// the child before it ends the process.
		label := fmt.Sprintf("tree=%s sync=%s kill=%s+%v workers=%d seed=%d", kind.name, syncPol, at, killAfter, recWorkers, seed)
		replay := fmt.Sprintf("reproduce with: pitree-verify -torture -real -seed %d -rounds %d", cfg.seed, round+1)
		fmt.Fprintf(os.Stderr, "real round %d start (%s)\n%s\n", round, label, replay)
		var child atomic.Pointer[os.Process]
		watchdog := watchRound(fmt.Sprintf("real round %d", round), label, replay, func() {
			if p := child.Load(); p != nil {
				_ = p.Kill()
			}
		})
		start := time.Now()
		clean, counts, err := realCrashRound(bin, seed, kind, syncPol, killAfter, atClose, recWorkers, rcfg, &child)
		watchdog.Stop()
		if took := time.Since(start); took > slowest {
			slowest, slowestRound = took, round
		}
		if err != nil {
			return fmt.Errorf("real round %d (%s): %w\n%s", round, label, err, replay)
		}
		outcome := "killed"
		if clean {
			outcome = "finished"
		}
		total.elisions += counts.elisions
		total.replays += counts.replays
		fmt.Printf("real round %d ok (tree=%s sync=%s kill=%s+%v recovery-workers=%d child=%s %v)\n",
			round, kind.name, syncPol, at, killAfter, recWorkers, outcome, counts)
	}
	if total.elisions == 0 {
		return errNoElision
	}
	fmt.Printf("slowest real round: %d, %v (watchdog at %v)\n", slowestRound, slowest.Round(time.Millisecond), roundDeadline)
	fmt.Println("all real-crash rounds verified: acked commits durable, no ghosts, trees well-formed")
	return nil
}

// closeWatch is the child's stdout: it keeps the stream and closes
// closing when the child's closing line has passed.
type closeWatch struct {
	buf     bytes.Buffer
	closing chan struct{}
	seen    bool
}

func (w *closeWatch) Write(p []byte) (int, error) {
	// No other line holds the word. It may straddle two writes: look
	// again from just before p.
	from := max(0, w.buf.Len()-len("closing\n"))
	w.buf.Write(p)
	if !w.seen && bytes.Contains(w.buf.Bytes()[from:], []byte("closing\n")) {
		w.seen = true
		close(w.closing)
	}
	return len(p), nil
}

// realCrashRound runs one child and kills it killAfter after its start,
// or with atClose after its closing line. counts is what the child's pools
// (as of its last report) and the restart's did with dirty victims. The
// child's process goes into child once it has started, for the round's
// watchdog to kill.
func realCrashRound(bin string, seed int64, kind treeKind, syncPol string, killAfter time.Duration, atClose bool, recWorkers int, cfg tortureConfig, child *atomic.Pointer[os.Process]) (clean bool, counts roundCounts, err error) {
	dir, err := os.MkdirTemp("", "pitree-real-*")
	if err != nil {
		return false, counts, err
	}
	defer os.RemoveAll(dir)

	args := []string{
		"-real-child", "-dir", dir, "-tree", kind.name, "-sync", syncPol,
		"-seed", strconv.FormatInt(seed, 10),
		"-workers", strconv.Itoa(cfg.workers), "-ops", strconv.Itoa(cfg.ops),
	}
	if cfg.pageOriented {
		args = append(args, "-page-undo")
	}
	cmd := exec.Command(bin, args...)
	out := &closeWatch{closing: make(chan struct{})}
	var errOut bytes.Buffer
	cmd.Stdout = out
	cmd.Stderr = &errOut
	if err := cmd.Start(); err != nil {
		return false, counts, fmt.Errorf("fork child: %v", err)
	}
	child.Store(cmd.Process)
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	// The kill timer starts with the child, or — a nil channel never
	// fires — once the child says it is closing.
	closing, timer := out.closing, (<-chan time.Time)(nil)
	if !atClose {
		closing, timer = nil, time.After(killAfter)
	}
	killed := false
	for running := true; running; {
		select {
		case <-closing:
			closing, timer = nil, time.After(killAfter)
		case <-timer:
			killed = true
			_ = cmd.Process.Kill()
			<-waitErr
			running = false
		case werr := <-waitErr:
			// Child finished before the kill: it must have exited clean.
			if werr != nil {
				return false, counts, fmt.Errorf("child failed before kill: %v\nchild stderr:\n%s", werr, errOut.String())
			}
			running = false
		}
	}

	oracle, err := parseRealAcks(out.buf.Bytes(), cfg.workers)
	if err != nil {
		return false, counts, err
	}
	counts = oracle.pool
	if killed && oracle.clean {
		// Raced: the child printed done just as the kill landed. Treat
		// as a clean finish.
		killed = false
	}
	if !killed && !oracle.clean {
		return false, counts, fmt.Errorf("child exited without done\nchild stderr:\n%s", errOut.String())
	}

	// Recover in-process from the real files the child left behind, in a
	// pool as small as the child's: redo elides, and replays from the
	// segment files once the restart has released the log from memory.
	e2, recovered, err := engine.Open(engine.Options{
		DataDir:         dir,
		PageOriented:    cfg.pageOriented,
		RecoveryWorkers: recWorkers,
		PoolCapacity:    40,
	})
	if err != nil {
		return false, counts, fmt.Errorf("reopen: %v", err)
	}
	defer e2.Close()
	defer func() { err = withPageFiles(err, e2) }()
	if !recovered {
		// No log survived at all: legal only if nothing was ever acked.
		if oracle.anyAcked() || oracle.clean {
			return false, counts, fmt.Errorf("no WAL found but commits were acked")
		}
		return !killed, counts, nil
	}
	draws := realDraws(seed)
	var pend recoveryPending
	tree2, err := openRealTree(kind, e2, &pend, draws)
	if err != nil {
		// The kill may predate the tree's creation becoming stable; then
		// nothing can have been acked.
		if oracle.anyAcked() {
			return false, counts, fmt.Errorf("tree unopenable after crash (%v) but commits were acked", err)
		}
		return !killed, counts, nil
	}
	defer tree2.close()
	// Undo, inside the space audit over the replayed log (the shadow
	// seeds itself from the checkpoint's space image, so segment
	// recycling is fine).
	if err := finishAudited(e2, pend.finish, tree2.drain); err != nil {
		return false, counts, err
	}
	if pend.absent() {
		// Undo rolled back the tree's creation.
		if oracle.anyAcked() {
			return false, counts, fmt.Errorf("tree absent after undo of its creation but commits were acked")
		}
		return !killed, counts, nil
	}

	if err := tree2.verify(); err != nil {
		return false, counts, fmt.Errorf("tree ill-formed after recovery: %v", err)
	}
	if err := oracle.auditRecovered(tree2); err != nil {
		return false, counts, err
	}
	// Lazy completion must converge whatever structure changes the kill
	// left half-done.
	tree2.drain()
	counts.add(e2.Pools())
	if err := tree2.verify(); err != nil {
		return false, counts, fmt.Errorf("tree ill-formed after completion: %v", err)
	}
	return !killed, counts, nil
}

// openRealTree runs the restart protocol against the child's files,
// converting the engine's open-time panics (a store file whose header
// write itself was cut by the kill) into ordinary errors.
func openRealTree(kind treeKind, e *engine.Engine, pend *recoveryPending, draws tortDraws) (tree tortTree, err error) {
	defer func() {
		if r := recover(); r != nil {
			tree, err = nil, fmt.Errorf("restart panic: %v", r)
		}
	}()
	return kind.open(e, pend, draws)
}
