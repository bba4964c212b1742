package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/maint"
	"repro/internal/recovery"
	"repro/internal/spatial"
	"repro/internal/storage"
	"repro/internal/tsb"
)

const (
	storeID  = 1
	treeName = "bench"
	// preloadBatch is the records per preload transaction (one MultiPut
	// where the tree has it).
	preloadBatch = 256
	// governorBudget is the background-maintenance budget, in pages per
	// second, of the workload that runs consolidation.
	governorBudget = 256
)

// env is one file-backed engine with one tree, built through the public
// API a user of the library gets.
type env struct {
	w       *workload
	dir     string
	n       uint64 // preloaded records
	clients int
	e       *engine.Engine
	core    *core.Tree
	tsb     *tsb.Tree
	sp      *spatial.Tree
	gov     *maint.Governor
	cl      []*client
}

func (w *workload) engineOptions(dir string) engine.Options {
	o := engine.Options{
		DataDir:           dir,
		Sync:              w.sync,
		PoolCapacity:      w.poolFrames,
		WriteBackInterval: 2 * time.Millisecond,
		PrefetchWindow:    8,
	}
	if w.tree != treeCore {
		// A full TSB or hB node of 100-byte values outgrows the default
		// 8 KiB page slot.
		o.SlotSize = 16 << 10
	}
	if w.crash {
		// No write-back and no checkpoint after load: the redo work the
		// kill leaves behind is then the same every run.
		o.WriteBackInterval = 0
	}
	return o
}

// restartTimes are the phases of one restart, in seconds. They add up to
// the time from engine.Open to the first answered Search.
type restartTimes struct {
	walOpen, analyzeRedo, treeOpen, undo, firstRead float64
	stats                                           recovery.Stats
}

func (r restartTimes) total() float64 {
	return r.walOpen + r.analyzeRedo + r.treeOpen + r.undo + r.firstRead
}

// openEnv opens the engine in dir. With create it makes the tree; without
// it runs the restart sequence a user runs (register, AddStore,
// AnalyzeAndRedo, tree Open, FinishRecovery) and answers one Search.
func openEnv(w *workload, dir string, n uint64, create bool) (*env, restartTimes, error) {
	var rt restartTimes
	v := &env{w: w, dir: dir, n: n, clients: numClients()}
	t := time.Now()
	lap := func() float64 {
		d := time.Since(t).Seconds()
		t = time.Now()
		return d
	}
	e, recovered, err := engine.Open(w.engineOptions(dir))
	if err != nil {
		return nil, rt, fmt.Errorf("engine.Open: %w", err)
	}
	rt.walOpen = lap()
	v.e = e
	if recovered == create {
		return nil, rt, fmt.Errorf("engine.Open(%s): recovered=%v, want %v", dir, recovered, !create)
	}
	if w.consolidation {
		v.gov = maint.New(governorBudget, 0, nil)
	}
	var pend *recovery.Pending
	bind := func(codec storage.Codec) (*storage.Store, error) {
		st := e.AddStore(storeID, codec)
		if create {
			return st, nil
		}
		pend, err = e.AnalyzeAndRedo()
		rt.analyzeRedo = lap()
		return st, err
	}
	// Create and Open of a tree package share one signature.
	switch w.tree {
	case treeCore:
		b := core.Register(e.Reg, false)
		st, err := bind(core.Codec{})
		if err != nil {
			return nil, rt, err
		}
		open := core.Open
		if create {
			open = core.Create
		}
		v.core, err = open(st, e.TM, e.Locks, b, treeName, core.Options{Consolidation: w.consolidation, Governor: v.gov})
		if err != nil {
			return nil, rt, err
		}
		e.RegisterCloser(v.core.Close)
	case treeTSB:
		b := tsb.Register(e.Reg)
		st, err := bind(tsb.Codec{})
		if err != nil {
			return nil, rt, err
		}
		open := tsb.Open
		if create {
			open = tsb.Create
		}
		v.tsb, err = open(st, e.TM, e.Locks, b, treeName, tsb.Options{GC: true})
		if err != nil {
			return nil, rt, err
		}
		e.RegisterCloser(v.tsb.Close)
	case treeSpatial:
		b := spatial.Register(e.Reg)
		st, err := bind(spatial.Codec{})
		if err != nil {
			return nil, rt, err
		}
		open := spatial.Open
		if create {
			open = spatial.Create
		}
		v.sp, err = open(st, e.TM, e.Locks, b, treeName, spatial.Options{})
		if err != nil {
			return nil, rt, err
		}
		e.RegisterCloser(v.sp.Close)
	}
	if create {
		return v, rt, nil
	}
	rt.treeOpen = lap()
	if err := e.FinishRecovery(pend); err != nil {
		return nil, rt, fmt.Errorf("FinishRecovery: %w", err)
	}
	rt.undo = lap()
	rt.stats = pend.Stats
	first := v.clientSet()[0]
	if err := first.exec(op{kind: w.tailMix(classRead)[0].kind}); err != nil {
		return nil, rt, fmt.Errorf("first read after restart: %w", err)
	}
	first.release()
	rt.firstRead = lap()
	return v, rt, nil
}

// setUp builds a fresh engine in dir, preloads it and checkpoints; it
// returns the seconds that took.
func setUp(w *workload, dir string, n uint64) (*env, float64, error) {
	start := time.Now()
	v, _, err := openEnv(w, dir, n, true)
	if err != nil {
		return nil, 0, err
	}
	if err := v.preload(); err != nil {
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	if _, err := v.e.Checkpoint(); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	return v, time.Since(start).Seconds(), nil
}

// preload writes records [0, n), preloadBatch per transaction, and on a
// core tree with inserts and deletes in its mix each client's rolling
// window. The core tree is loaded in ascending key order, the only order
// that loads a tree larger than its cache quickly. The TSB tree is loaded
// in index order, which scatters the keys: ascending order drives its
// index into soft overflow (one index node per data node, 200 KB pages).
func (v *env) preload() error {
	ids := make([]uint64, 0, preloadBatch)
	flush := func() error {
		err := v.putBatch(ids)
		ids = ids[:0]
		return err
	}
	add := func(id uint64) error {
		ids = append(ids, id)
		if len(ids) == preloadBatch {
			return flush()
		}
		return nil
	}
	for i := uint64(0); i < v.n; i++ {
		id := i
		switch {
		case v.tsb != nil:
			id = keyOf(i, v.n)
		case v.sp != nil:
			id = pointID(pointOf(i))
		}
		if err := add(id); err != nil {
			return err
		}
	}
	for c := 0; c < v.clients; c++ {
		for j := uint64(0); j < v.rollingWindow(); j++ {
			if err := add(windowKey(c, j)); err != nil {
				return err
			}
		}
	}
	return flush()
}

// rollingWindow is the number of own keys each client starts with.
func (v *env) rollingWindow() uint64 {
	for _, m := range v.w.mix {
		if m.kind == opDelete {
			return min(windowPerClient, v.n/4)
		}
	}
	return 0
}

// putBatch writes one transaction of records with sequence number 0.
func (v *env) putBatch(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	tx := v.e.TM.Begin()
	var err error
	if v.sp != nil {
		val := make([]byte, valueLen)
		for _, id := range ids {
			fillValue(val, id, 0)
			if err = v.sp.Insert(tx, idPoint(id), val); err != nil {
				break
			}
		}
	} else {
		ks := make([]keys.Key, len(ids))
		vals := make([][]byte, len(ids))
		for i, id := range ids {
			ks[i] = keys.Uint64(id)
			vals[i] = make([]byte, valueLen)
			fillValue(vals[i], id, 0)
		}
		if v.core != nil {
			err = v.core.MultiPut(tx, ks, vals)
		} else {
			err = v.tsb.MultiPut(tx, ks, vals)
		}
	}
	if err != nil {
		_ = tx.Abort() // the preload error is the one to report
		return err
	}
	return tx.Commit()
}

// drain runs the tree's scheduled structure-change completions to the end.
func (v *env) drain() {
	switch {
	case v.core != nil:
		v.core.DrainCompletions()
	case v.tsb != nil:
		v.tsb.DrainCompletions()
	default:
		v.sp.DrainCompletions()
	}
}

// verify runs the tree's own well-formedness check and returns its record
// count (current versions for the TSB tree).
func (v *env) verify() (int, error) {
	switch {
	case v.core != nil:
		s, err := v.core.Verify()
		return s.Records, err
	case v.tsb != nil:
		_, err := v.tsb.Verify()
		if err != nil {
			return 0, err
		}
		n := 0
		err = v.tsb.ScanAsOf(v.tsb.Now(), nil, nil, func(keys.Key, []byte) bool { n++; return true })
		return n, err
	default:
		s, err := v.sp.Verify()
		return s.Points, err
	}
}

// scanAll passes every live record's id and value to fn.
func (v *env) scanAll(fn func(id uint64, val []byte)) error {
	switch {
	case v.core != nil:
		return v.core.RangeScan(nil, nil, nil, func(k keys.Key, val []byte) bool {
			fn(keys.ToUint64(k), val)
			return true
		})
	case v.tsb != nil:
		return v.tsb.ScanAsOf(v.tsb.Now(), nil, nil, func(k keys.Key, val []byte) bool {
			fn(keys.ToUint64(k), val)
			return true
		})
	default:
		return v.sp.RegionQuery(spatial.FullSpace(), func(p spatial.Point, val []byte) bool {
			fn(pointID(p), val)
			return true
		})
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
