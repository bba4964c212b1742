package pitree

import (
	"fmt"
	"sync"

	"repro/internal/storage"
	"repro/internal/wal"
)

// Binding connects a tree package's registered record kinds to its live
// trees, by store ID, so that logical (non-page-oriented) undo can
// re-traverse the tree a log record belongs to. One Binding serves every
// tree of its kind in an engine; the zero value is ready for use.
type Binding[T any] struct {
	mu    sync.RWMutex
	trees map[uint32]T
}

// Bind registers t as the tree living in store storeID.
func (b *Binding[T]) Bind(storeID uint32, t T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.trees == nil {
		b.trees = make(map[uint32]T)
	}
	b.trees[storeID] = t
}

// Tree returns the tree bound to storeID.
func (b *Binding[T]) Tree(storeID uint32) (T, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	t, ok := b.trees[storeID]
	if !ok {
		return t, fmt.Errorf("pitree: no tree bound for store %d", storeID)
	}
	return t, nil
}

// NodeOf returns the node of type N held in f; redo and undo handlers
// use it on frames named by log records.
func NodeOf[N any](f *storage.Frame) (N, error) {
	n, ok := f.Data.(N)
	if !ok {
		return n, fmt.Errorf("pitree: page %d holds %T, not a node", f.ID, f.Data)
	}
	return n, nil
}

// RedoNode adapts a redo function over a node to a storage redo handler:
// the frame named by the log record must hold a node of type N.
func RedoNode[N any](redo func(n N, rec *wal.Record) error) func(*storage.Frame, *wal.Record) error {
	return func(f *storage.Frame, rec *wal.Record) error {
		n, err := NodeOf[N](f)
		if err != nil {
			return err
		}
		return redo(n, rec)
	}
}
