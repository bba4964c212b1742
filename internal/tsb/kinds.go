package tsb

import (
	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Log record kinds owned by the TSB tree (range 40..59).
const (
	// KindFormat installs a complete node image on a fresh page.
	KindFormat wal.Kind = 40
	// KindTimeSplit trims a current node to [ts, now): versions dead
	// before ts leave for the new history sibling.
	KindTimeSplit wal.Kind = 41
	// KindRestoreImage replaces a node with a stored pre-image
	// (compensation for structural updates).
	KindRestoreImage wal.Kind = 42
	// KindKeySplit trims a node to the low part of its key range.
	KindKeySplit wal.Kind = 43
	// KindPut inserts one record version (possibly a tombstone).
	KindPut wal.Kind = 44
	// KindRemoveVersion removes an exact (key, start) version; it is the
	// logical-undo compensation for KindPut.
	KindRemoveVersion wal.Kind = 45
	// KindPostTerm adds a rectangle index term to a level-1 node.
	KindPostTerm wal.Kind = 46
	// KindRemoveTerm deletes a rectangle term by child page.
	KindRemoveTerm wal.Kind = 47
	// KindPostKeyTerm adds a key-only term to a level>=2 node.
	KindPostKeyTerm wal.Kind = 48
	// KindRemoveKeyTerm deletes a key-only term.
	KindRemoveKeyTerm wal.Kind = 49
	// KindIndexKeySplit trims an index node to the low part of its key
	// range, retaining CLIPPED terms whose rectangles span the boundary
	// (§3.2.2).
	KindIndexKeySplit wal.Kind = 50
	// KindRootGrow turns the root into an index node one level up.
	KindRootGrow wal.Kind = 51
	// KindRetireNode garbage-collects a historical node whose whole time
	// range fell below the visibility horizon: entries are cleared and the
	// node is marked Retired (the page is never freed — CNS). The payload
	// optionally also clears the history side pointer, cutting the chain
	// of already-retired older nodes loose when the suffix head retires.
	KindRetireNode wal.Kind = 52
	// KindCutHist unlinks a fully-retired history-chain tail from its sole
	// referencer so the tail's page can be freed and recycled
	// (Options.Reclaim): the logged node drops its history pointer and its
	// shared-edge mark. The tail's de-allocation is meta-logged by the
	// store's free record inside the same atomic action; undo restores the
	// pre-image (and the meta undo un-frees the page).
	KindCutHist wal.Kind = 53
)

// --- payload codecs --------------------------------------------------------

func encTimeSplit(ts uint64, hist storage.PageID, pre *Node) []byte {
	var w enc.Writer
	w.U64(ts)
	w.U64(uint64(hist))
	encodeNode(&w, pre)
	return w.Bytes()
}

func decTimeSplit(b []byte) (ts uint64, hist storage.PageID, pre *Node, err error) {
	r := enc.NewReader(b)
	ts = r.U64()
	hist = storage.PageID(r.U64())
	pre, err = decodeNode(r)
	return
}

func encKeySplit(k keys.Key, sib storage.PageID, pre *Node) []byte {
	var w enc.Writer
	w.Bytes32(k)
	w.U64(uint64(sib))
	encodeNode(&w, pre)
	return w.Bytes()
}

func decKeySplit(b []byte) (k keys.Key, sib storage.PageID, pre *Node, err error) {
	r := enc.NewReader(b)
	k = r.Bytes32()
	sib = storage.PageID(r.U64())
	pre, err = decodeNode(r)
	return
}

func encPut(e Entry) []byte {
	var w enc.Writer
	w.Bytes32(e.Key)
	w.U64(e.Start)
	w.Bytes32(e.Value)
	w.Bool(e.Deleted)
	w.U64(uint64(e.Txn))
	return w.Bytes()
}

func decPut(b []byte) (Entry, error) {
	r := enc.NewReader(b)
	var e Entry
	e.Key = r.Bytes32()
	e.Start = r.U64()
	e.Value = r.Bytes32()
	e.Deleted = r.Bool()
	e.Txn = wal.TxnID(r.U64())
	return e, r.Err()
}

func encVersionRef(k keys.Key, start uint64) []byte {
	var w enc.Writer
	w.Bytes32(k)
	w.U64(start)
	return w.Bytes()
}

func decVersionRef(b []byte) (keys.Key, uint64, error) {
	r := enc.NewReader(b)
	k := r.Bytes32()
	s := r.U64()
	return k, s, r.Err()
}

func encTerm(e Entry) []byte {
	var w enc.Writer
	w.U64(uint64(e.Child))
	encodeRect(&w, e.ChildRect)
	w.Bool(e.Clipped)
	return w.Bytes()
}

func decTerm(b []byte) (Entry, error) {
	r := enc.NewReader(b)
	var e Entry
	e.Child = storage.PageID(r.U64())
	e.ChildRect = decodeRect(r)
	e.Clipped = r.Bool()
	return e, r.Err()
}

func encKeyTerm(k keys.Key, child storage.PageID) []byte {
	var w enc.Writer
	w.Bytes32(k)
	w.U64(uint64(child))
	return w.Bytes()
}

func decKeyTerm(b []byte) (keys.Key, storage.PageID, error) {
	r := enc.NewReader(b)
	k := r.Bytes32()
	c := storage.PageID(r.U64())
	return k, c, r.Err()
}

func encRetire(unlink bool, pre *Node) []byte {
	var w enc.Writer
	w.Bool(unlink)
	encodeNode(&w, pre)
	return w.Bytes()
}

func decRetire(b []byte) (unlink bool, pre *Node, err error) {
	r := enc.NewReader(b)
	unlink = r.Bool()
	pre, err = decodeNode(r)
	return
}

// applyRetire garbage-collects a historical node in place: versions go,
// the rectangle and sibling pointers stay so stale traversals still
// navigate through it. unlink additionally drops the history pointer (the
// retiring node is the newest of the reclaimed suffix; everything behind
// it is already retired).
func applyRetire(n *Node, unlink bool) {
	n.Entries = nil
	n.Retired = true
	if unlink {
		n.HistSib = storage.NilPage
	}
}

func encCutHist(pre *Node) []byte { return encNodeImage(pre) }

// applyCutHist drops a node's history edge: the tail behind it is about
// to be (or was, on redo) de-allocated. The edge mark goes with the edge.
func applyCutHist(n *Node) {
	n.HistSib = storage.NilPage
	n.HistShared = false
}

func encRootGrow(termA, termB Entry, pre *Node) []byte {
	var w enc.Writer
	encodeEntry(&w, termA)
	encodeEntry(&w, termB)
	encodeNode(&w, pre)
	return w.Bytes()
}

func decRootGrow(b []byte) (termA, termB Entry, pre *Node, err error) {
	r := enc.NewReader(b)
	termA = decodeEntry(r)
	termB = decodeEntry(r)
	pre, err = decodeNode(r)
	return
}

// --- semantic helpers shared by runtime application and redo ----------------

// applyTimeSplit keeps, in the current node, every version alive at ts
// (the latest version of each key with Start < ts stays, copied semantics)
// plus every version with Start >= ts, then advances TimeLow and installs
// the history sibling. The old history edge — pointer AND shared mark —
// moved to the new history node (splitData builds its image that way), so
// the current node's new edge to it is fresh and single-referenced.
func applyTimeSplit(n *Node, ts uint64, hist storage.PageID) {
	kept := n.Entries[:0:0]
	for i, e := range n.Entries {
		if e.Start >= ts {
			kept = append(kept, e)
			continue
		}
		// Alive at ts iff no later version of the same key with
		// Start < ts... i.e. this is the last version of its key below
		// ts. Entries are sorted by (Key, Start).
		lastBelow := i+1 >= len(n.Entries) ||
			!keys.Equal(n.Entries[i+1].Key, e.Key) ||
			n.Entries[i+1].Start >= ts
		if lastBelow {
			kept = append(kept, e)
		}
	}
	n.Entries = kept
	n.Rect.TimeLow = ts
	n.HistSib = hist
	n.HistShared = false
}

// historyContents returns the versions the new history node receives:
// every version with Start < ts.
func historyContents(pre *Node, ts uint64) []Entry {
	var out []Entry
	for _, e := range pre.Entries {
		if e.Start < ts {
			out = append(out, cloneEntry(e))
		}
	}
	return out
}

// applyKeySplit trims a data node to keys below k. The new sibling copies
// the history pointer, so if one exists the edge is now reached from two
// current nodes: mark it shared on this side (the sibling's image carries
// its own mark) so reclamation never frees the chain's tail out from
// under the other referencer.
func applyKeySplit(n *Node, k keys.Key, sib storage.PageID) {
	kept := n.Entries[:0:0]
	for _, e := range n.Entries {
		if keys.Compare(e.Key, k) < 0 {
			kept = append(kept, e)
		}
	}
	n.Entries = kept
	n.Rect.KeyHigh = keys.At(k)
	n.KeySib = sib
	if n.HistSib != storage.NilPage {
		n.HistShared = true
	}
}

// applyIndexKeySplit trims an index node to keys below k, RETAINING
// clipped terms (level 1) whose rectangles span k; spanning terms are
// also marked Clipped, flagging their children as multi-parent (§3.3).
func applyIndexKeySplit(n *Node, k keys.Key, sib storage.PageID) {
	kept := n.Entries[:0:0]
	for _, e := range n.Entries {
		if n.Level == 1 {
			if keys.Compare(e.ChildRect.KeyLow, k) < 0 {
				if e.ChildRect.SpansKey(k) {
					e.Clipped = true
				}
				kept = append(kept, e)
			}
		} else {
			if keys.Compare(e.Key, k) < 0 {
				kept = append(kept, e)
			}
		}
	}
	n.Entries = kept
	n.Rect.KeyHigh = keys.At(k)
	n.KeySib = sib
}

// indexSiblingEntries returns the terms the new index sibling receives:
// those at or above k, plus clipped copies of spanning level-1 terms.
func indexSiblingEntries(pre *Node, k keys.Key) (entries []Entry, clipped int) {
	for _, e := range pre.Entries {
		if pre.Level == 1 {
			if keys.Compare(e.ChildRect.KeyLow, k) >= 0 {
				entries = append(entries, cloneEntry(e))
			} else if e.ChildRect.SpansKey(k) {
				c := cloneEntry(e)
				c.Clipped = true
				entries = append(entries, c)
				clipped++
			}
		} else {
			if keys.Compare(e.Key, k) >= 0 {
				entries = append(entries, cloneEntry(e))
			}
		}
	}
	return entries, clipped
}

// --- binding and registration -----------------------------------------------

// Binding connects record kinds to live trees for logical undo.
type Binding = pitree.Binding[*Tree]

// Register installs the TSB record kinds into reg. Record undo is always
// logical for the TSB tree — re-traversal by (key, start) — so structure
// changes are never constrained by record undo and all splits run as
// independent atomic actions (the paper's preferred regime, §6).
func Register(reg *storage.Registry) *Binding {
	b := new(Binding)

	restore := func(rec *wal.Record, pre *Node) (storage.Compensation, error) {
		return storage.Compensation{Kind: KindRestoreImage, StoreID: rec.StoreID, PageID: storage.PageID(rec.PageID), Payload: encNodeImage(pre)}, nil
	}

	reg.Register(KindFormat, storage.Handler{
		Redo: func(f *storage.Frame, rec *wal.Record) error {
			n, err := decodeNode(enc.NewReader(rec.Payload))
			if err != nil {
				return err
			}
			f.Data = n
			return nil
		},
	})
	reg.Register(KindRestoreImage, storage.Handler{
		Redo: func(f *storage.Frame, rec *wal.Record) error {
			n, err := decodeNode(enc.NewReader(rec.Payload))
			if err != nil {
				return err
			}
			f.Data = n
			return nil
		},
	})
	reg.Register(KindTimeSplit, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			ts, hist, _, err := decTimeSplit(rec.Payload)
			if err != nil {
				return err
			}
			applyTimeSplit(n, ts, hist)
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			_, _, pre, err := decTimeSplit(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return restore(rec, pre)
		},
	})
	reg.Register(KindKeySplit, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			k, sib, _, err := decKeySplit(rec.Payload)
			if err != nil {
				return err
			}
			applyKeySplit(n, k, sib)
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			_, _, pre, err := decKeySplit(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return restore(rec, pre)
		},
	})
	reg.Register(KindIndexKeySplit, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			k, sib, _, err := decKeySplit(rec.Payload)
			if err != nil {
				return err
			}
			applyIndexKeySplit(n, k, sib)
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			_, _, pre, err := decKeySplit(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return restore(rec, pre)
		},
	})
	reg.Register(KindPut, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decPut(rec.Payload)
			if err != nil {
				return err
			}
			n.insertVersion(e)
			return nil
		}),
		LogicalUndo: func(rec *wal.Record) error {
			t, err := b.Tree(rec.StoreID)
			if err != nil {
				return err
			}
			e, err := decPut(rec.Payload)
			if err != nil {
				return err
			}
			return t.logicalUndoPut(rec, e)
		},
	})
	reg.Register(KindRemoveVersion, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			k, start, err := decVersionRef(rec.Payload)
			if err != nil {
				return err
			}
			n.removeVersion(k, start)
			return nil
		}),
		// CLR-only; never undone.
	})
	reg.Register(KindPostTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decTerm(rec.Payload)
			if err != nil {
				return err
			}
			if _, dup := n.termFor(e.Child); !dup {
				n.insertTerm(e)
			}
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindRemoveTerm, StoreID: rec.StoreID, PageID: storage.PageID(rec.PageID), Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindRemoveTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decTerm(rec.Payload)
			if err != nil {
				return err
			}
			if i, ok := n.termFor(e.Child); ok {
				n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
			}
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindPostTerm, StoreID: rec.StoreID, PageID: storage.PageID(rec.PageID), Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindPostKeyTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			k, child, err := decKeyTerm(rec.Payload)
			if err != nil {
				return err
			}
			n.insertKeyTerm(Entry{Key: k, Child: child})
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindRemoveKeyTerm, StoreID: rec.StoreID, PageID: storage.PageID(rec.PageID), Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindRemoveKeyTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			k, _, err := decKeyTerm(rec.Payload)
			if err != nil {
				return err
			}
			for i := range n.Entries {
				if keys.Equal(n.Entries[i].Key, k) {
					n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
					break
				}
			}
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindPostKeyTerm, StoreID: rec.StoreID, PageID: storage.PageID(rec.PageID), Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindRetireNode, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			unlink, _, err := decRetire(rec.Payload)
			if err != nil {
				return err
			}
			applyRetire(n, unlink)
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			_, pre, err := decRetire(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return restore(rec, pre)
		},
	})
	reg.Register(KindCutHist, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			applyCutHist(n)
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			pre, err := decodeNode(enc.NewReader(rec.Payload))
			if err != nil {
				return storage.Compensation{}, err
			}
			return restore(rec, pre)
		},
	})
	reg.Register(KindRootGrow, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			termA, termB, _, err := decRootGrow(rec.Payload)
			if err != nil {
				return err
			}
			n.Level++
			n.Entries = []Entry{termA, termB}
			n.Rect = EntireRect()
			n.KeySib = storage.NilPage
			n.HistSib = storage.NilPage
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			_, _, pre, err := decRootGrow(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return restore(rec, pre)
		},
	})
	return b
}
