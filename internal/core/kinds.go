package core

import (
	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Log record kinds owned by the Π-tree (range 10..29). Every structural
// operation is physiological: redo is a pure function of (page, payload),
// and undo is expressed as a compensating operation on the same page
// (page-oriented) or as a logical re-traversal (non-page-oriented record
// undo, selected per engine).
const (
	// KindFormatNode installs a complete node image on a fresh page (the
	// new sibling of a split, or the relocated root contents). Redo-only:
	// aborting the allocator entry reclaims the page.
	KindFormatNode wal.Kind = 10
	// KindSplitTruncate removes the delegated upper part from a split
	// node and installs its new sibling term. Its inverse is
	// KindConsolidateMove of the sibling's image, and it is that kind's.
	KindSplitTruncate wal.Kind = 11
	// KindRestoreImage replaces a node with a stored pre-image; only ever a
	// CLR, the compensation for the two root kinds, which keep an image.
	KindRestoreImage wal.Kind = 12
	// KindInsertRecord adds a data record to a leaf.
	KindInsertRecord wal.Kind = 13
	// KindDeleteRecord removes a data record from a leaf.
	KindDeleteRecord wal.Kind = 14
	// KindUpdateRecord changes a data record's value in place.
	KindUpdateRecord wal.Kind = 15
	// KindPostIndexTerm adds an index term to an index node (§5.3 step 4).
	KindPostIndexTerm wal.Kind = 16
	// KindRemoveIndexTerm deletes an index term (consolidation).
	KindRemoveIndexTerm wal.Kind = 17
	// KindRootGrow turns the root into an index node over two new
	// children after a root split (§5.3 Space Test, root case).
	KindRootGrow wal.Kind = 18
	// KindConsolidateMove appends a contained node's entries to its
	// container and takes over its sibling term (§3.3).
	KindConsolidateMove wal.Kind = 19
	// KindMarkDead flags a de-allocated node, bumping its state
	// identifier — strategy (b) of §5.2.2.
	KindMarkDead wal.Kind = 20
	// KindMarkAlive clears the flag (compensation for KindMarkDead).
	KindMarkAlive wal.Kind = 21
	// KindRootShrink absorbs the root's single child, reducing tree
	// height after consolidations.
	KindRootShrink wal.Kind = 22
)

// --- payload codecs -----------------------------------------------------

func encKVV(key keys.Key, newVal, oldVal []byte) []byte {
	var w enc.Writer
	w.Bytes32(key)
	w.Bytes32(newVal)
	w.Bytes32(oldVal)
	return w.Bytes()
}

func decKVV(b []byte) (keys.Key, []byte, []byte, error) {
	r := enc.NewReader(b)
	k := r.Bytes32()
	nv := r.Bytes32()
	ov := r.Bytes32()
	return k, nv, ov, r.Err()
}

func encNodeImage(n *Node) []byte {
	var w enc.Writer
	encodeNode(&w, n)
	return w.Bytes()
}

// decNodeImage decodes a whole image; the node's entries alias b.
func decNodeImage(b []byte) (*Node, error) {
	return decodeNode(enc.NewReader(b))
}

// nodeKinds is the kernel's description of the tree's node images. A grown
// root spans everything over two terms, the first at its own low key.
var nodeKinds = pitree.NodeKinds[*Node]{
	Format: KindFormatNode, Restore: KindRestoreImage, Grow: KindRootGrow,
	Image: encNodeImage, Decode: decNodeImage, Layout: termLayout,
	Raise: func(n *Node, terms enc.Records) {
		n.Level++
		n.recs = terms.Clone()
		n.High = keys.Inf
		n.Right = storage.NilPage
	},
}

// A splitTruncate payload is the sibling's index term: the separator and the
// new sibling. What left the node is in the sibling's format record, logged
// just before.

// consolidateMove payload: the absorbed node's page and its image (entries
// plus the sibling term the container takes over). The container's own
// entries are not logged: undo cuts it again at the absorbed node's low key.
func encConsolidateMove(from storage.PageID, absorbed []byte) []byte {
	var w enc.Writer
	w.U64(uint64(from))
	return append(w.Bytes(), absorbed...)
}

func decConsolidateMove(b []byte) (from storage.PageID, absorbed *Node, err error) {
	r := enc.NewReader(b)
	from = storage.PageID(r.U64())
	absorbed, err = decodeNode(r)
	return
}

// rootShrink payload: the absorbed child's image and the root's pre-image
// (a one-term index node).
func encRootShrink(absorbed, pre *Node) []byte {
	var w enc.Writer
	encodeNode(&w, absorbed)
	encodeNode(&w, pre)
	return w.Bytes()
}

func decRootShrink(b []byte) (absorbed, pre *Node, err error) {
	r := enc.NewReader(b)
	absorbed, err = decodeNode(r)
	if err != nil {
		return
	}
	pre, err = decodeNode(r)
	return
}

// --- handler registration ------------------------------------------------

// Binding connects the registered record kinds to live Tree instances so
// that logical (non-page-oriented) undo can re-traverse. One Binding
// serves all Π-trees in an engine.
type Binding struct {
	pitree.Binding[*Tree]
	pageOriented bool
}

// PageOriented reports whether record undo is page-oriented in this
// engine.
func (b *Binding) PageOriented() bool { return b.pageOriented }

// logicalUndo returns the logical undo of a data record (§4.2, §6): the
// write op of the key and value dec reads from its payload, applied by the
// kernel's Compensate to whatever leaf holds the key now.
func (b *Binding) logicalUndo(op writeOp, dec func([]byte) (Entry, error)) func(*wal.Record, storage.CLRLogger) error {
	return func(rec *wal.Record, tx storage.CLRLogger) error {
		t, err := b.Tree(rec.StoreID)
		if err != nil {
			return err
		}
		e, err := dec(rec.Payload)
		if err != nil {
			return err
		}
		w := &leafWrite{t: t, op: op, ks: []keys.Key{e.Key}, vals: [][]byte{e.Value}, undo: true}
		return t.kern.Compensate(tx, rec.PrevLSN, w)
	}
}

// Register installs the Π-tree record kinds into reg. pageOriented selects
// the record-undo discipline for data records (§4.2): when true, undo is
// on the same page and splits that move uncommitted updates must run
// inside the updating transaction under a move lock; when false, record
// undo re-traverses the tree, and all splits run as independent atomic
// actions.
func Register(reg *storage.Registry, pageOriented bool) *Binding {
	b := &Binding{pageOriented: pageOriented}
	nodeKinds.Register(reg)
	reg.Register(KindSplitTruncate, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			cut, err := decRecord(1, rec.Payload)
			if err != nil {
				return err
			}
			i, _ := n.search(cut.Key)
			n.recs = n.recs.Slice(0, i)
			n.High = keys.At(keys.Clone(cut.Key))
			n.Right = cut.Child
			return nil
		}),
		// Undo takes the sibling back: its entries, high bound and side
		// pointer are what the node lost.
		MakeUndo: func(rec *wal.Record, log storage.LogReader) (storage.Compensation, error) {
			cut, err := decRecord(1, rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			image, err := pitree.SiblingImage(log, rec, KindFormatNode, cut.Child)
			if err != nil {
				return storage.Compensation{}, err
			}
			return storage.Compensation{Kind: KindConsolidateMove, Payload: encConsolidateMove(cut.Child, image)}, nil
		},
	})

	// An insert and a delete carry the leaf entry, which the inverse kind
	// logs as it is.
	leafRecord := func(p []byte) (Entry, error) { return decRecord(0, p) }
	inverse := func(kind wal.Kind) func(*wal.Record, storage.LogReader) (storage.Compensation, error) {
		return func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			_, err := leafRecord(rec.Payload)
			return storage.Compensation{Kind: kind, Payload: rec.Payload}, err
		}
	}
	insertHandler := storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := leafRecord(rec.Payload)
			if err != nil {
				return err
			}
			n.insertEntry(e)
			return nil
		}),
		MakeUndo: inverse(KindDeleteRecord),
	}
	deleteHandler := storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := leafRecord(rec.Payload)
			if err != nil {
				return err
			}
			n.deleteEntry(e.Key)
			return nil
		}),
		MakeUndo: inverse(KindInsertRecord),
	}
	updateHandler := storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			k, nv, _, err := decKVV(rec.Payload)
			if err != nil {
				return err
			}
			if i, ok := n.search(k); ok {
				n.setValue(i, nv)
			}
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			k, nv, ov, err := decKVV(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return storage.Compensation{Kind: KindUpdateRecord, Payload: encKVV(k, ov, nv)}, nil
		},
	}
	if !pageOriented {
		// Non-page-oriented record undo: compensate by re-traversing the
		// tree to wherever the record lives now. Structure changes never
		// need undoing against moved records, which is why this mode lets
		// even data-node splits run outside the transaction (§6).
		insertHandler.LogicalUndo = b.logicalUndo(opDelete, leafRecord)
		deleteHandler.LogicalUndo = b.logicalUndo(opInsert, leafRecord)
		updateHandler.LogicalUndo = b.logicalUndo(opUpdate, func(p []byte) (Entry, error) {
			k, _, ov, err := decKVV(p)
			return Entry{Key: k, Value: ov}, err
		})
	}
	reg.Register(KindInsertRecord, insertHandler)
	reg.Register(KindDeleteRecord, deleteHandler)
	reg.Register(KindUpdateRecord, updateHandler)

	reg.Register(KindPostIndexTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decRecord(1, rec.Payload)
			if err != nil {
				return err
			}
			n.insertEntry(e)
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindRemoveIndexTerm, Payload: rec.Payload}, nil
		},
	})

	reg.Register(KindRemoveIndexTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decRecord(1, rec.Payload)
			if err != nil {
				return err
			}
			n.deleteEntry(e.Key)
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindPostIndexTerm, Payload: rec.Payload}, nil
		},
	})

	reg.Register(KindConsolidateMove, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			_, absorbed, err := decConsolidateMove(rec.Payload)
			if err != nil {
				return err
			}
			n.absorb(absorbed)
			n.High = absorbed.High
			n.Right = absorbed.Right
			return nil
		}),
		// Undo splits the absorbed node off again: everything from its low
		// key up goes, and the container's sibling term points back at it.
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			from, absorbed, err := decConsolidateMove(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return storage.Compensation{Kind: KindSplitTruncate, Payload: appendTerm(nil, absorbed.Low, from)}, nil
		},
	})

	reg.Register(KindMarkDead, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			n.Dead = true
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindMarkAlive}, nil
		},
	})
	reg.Register(KindMarkAlive, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			n.Dead = false
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindMarkDead}, nil
		},
	})

	reg.Register(KindRootShrink, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			absorbed, _, err := decRootShrink(rec.Payload)
			if err != nil {
				return err
			}
			n.Level = absorbed.Level
			n.recs = absorbed.recs.Clone() // absorbed aliases the payload
			n.High = absorbed.High
			n.Right = absorbed.Right
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			_, pre, err := decRootShrink(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return storage.Compensation{Kind: KindRestoreImage, Payload: encNodeImage(pre)}, nil
		},
	})

	return b
}
