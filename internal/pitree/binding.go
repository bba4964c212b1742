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
type Binding[T any] struct{ trees sync.Map } // store ID → T

// Bind registers t as the tree living in store storeID.
func (b *Binding[T]) Bind(storeID uint32, t T) { b.trees.Store(storeID, t) }

// LogicalUndo is the LogicalUndo handler of a record kind of the trees
// bound in b (§4.2, §6): undo reads from the record the kernel of the tree
// bound to its store and the Undoer of the record, which Compensate runs.
func LogicalUndo[T, N, K any](b *Binding[T], undo func(t T, rec *wal.Record) (*Kernel[N, K], Undoer[N, K], error)) func(*wal.Record, storage.CLRLogger) error {
	return func(rec *wal.Record, tx storage.CLRLogger) error {
		t, ok := b.trees.Load(rec.StoreID)
		if !ok {
			return fmt.Errorf("pitree: no tree bound for store %d", rec.StoreID)
		}
		k, w, err := undo(t.(T), rec)
		if err != nil {
			return err
		}
		return k.Compensate(tx, rec, w)
	}
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
