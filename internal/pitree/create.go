package pitree

import (
	"errors"
	"fmt"

	"repro/internal/latch"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Create runs the one atomic action that creates a tree named name in
// store: it bootstraps the store's meta page if this is the store's first
// tree, allocates npages pages, formats them with the nodes build returns
// for those page IDs, and records the first page as the tree's root,
// which it returns. Nodes are formatted last to first, so a root listed
// first is logged after the children it references. A creation that fails
// is rolled back.
func Create[N any](store *storage.Store, tm *txn.Manager, name string, npages int, nk *NodeKinds[N],
	build func(pids []storage.PageID) []N) (root storage.PageID, err error) {
	aa := tm.BeginAtomicAction()
	defer func() {
		if err == nil {
			err = aa.Commit()
		} else if aerr := aa.Abort(); aerr != nil {
			err = fmt.Errorf("%v: %w", err, aerr)
		}
	}()
	pool := store.Pool
	if f, err := pool.Fetch(storage.MetaPage); err == nil {
		pool.Unpin(f)
	} else if !errors.Is(err, storage.ErrPageNotFound) {
		return storage.NilPage, err
	} else if err := store.Bootstrap(aa); err != nil {
		return storage.NilPage, err
	}
	var tr latch.Tracker
	pids := make([]storage.PageID, npages)
	for i := range pids {
		if pids[i], err = store.Alloc(aa, &tr); err != nil {
			return storage.NilPage, err
		}
	}
	nodes := build(pids)
	for i := len(nodes) - 1; i >= 0; i-- {
		if err := formatPage(pool, &tr, 0, aa, pids[i], nodes[i], nk.Format, nk.Image(nodes[i])); err != nil {
			return storage.NilPage, err
		}
	}
	return pids[0], store.SetRoot(aa, &tr, name, pids[0])
}

// formatPage installs data as the contents of the freshly allocated page
// pid and logs its image through lg. Nothing references the page yet; it
// is X-latched for the write all the same, so the tracker sees every
// latch the action takes.
func formatPage(pool *storage.Pool, tr *latch.Tracker, rank latch.Rank, lg storage.UpdateLogger, pid storage.PageID, data any, kind wal.Kind, image []byte) error {
	f, err := pool.Create(pid)
	if err != nil {
		return err
	}
	f.Latch.AcquireX()
	tr.Acquired(f, rank, latch.X)
	lg.LogUpdate(f, kind, image)
	f.Data = data
	tr.Released(f)
	f.Latch.ReleaseX()
	pool.Unpin(f)
	return nil
}
