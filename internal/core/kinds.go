package core

import (
	"fmt"

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

// An update's payload is the key, then one enc.Delta that turns the old
// value into the new one (DESIGN.md §16). The delta with its two lengths
// swapped turns the new value back into the old, and that is the
// compensation of both undo disciplines. A delta applied twice corrupts the
// value, so it is applied only behind the pageLSN test (storage.Registry's
// redo, which restart redo, write elision's replay and a rollback's CLR all
// go through) or, by a logical undo, under the latch of the leaf whose CLR
// logs it.
type valueDelta struct {
	key keys.Key
	enc.Delta
}

// appendDelta appends d's payload to dst.
func appendDelta(dst []byte, d valueDelta) []byte {
	return enc.AppendDelta(enc.AppendField(dst, d.key), d.Delta)
}

// appendUpdate appends the payload of an update of key's value from old to
// new.
func appendUpdate(dst []byte, key keys.Key, old, new []byte) []byte {
	return enc.AppendXOR(enc.AppendField(dst, key), old, new)
}

// updatePayload is the payload of an update of key's value from old to
// new, in one allocation sized for it.
func updatePayload(key keys.Key, old, new []byte) []byte {
	return appendUpdate(make([]byte, 0, 4+len(key)+enc.MaxXORLen(len(old), len(new))), key, old, new)
}

// decUpdate decodes an update's payload. It accepts only what appendUpdate
// writes (enc.DecodeDelta), with lengths within the largest record a tree
// admits, so a payload it accepts re-encodes to the same bytes.
func decUpdate(b []byte) (valueDelta, error) {
	r := enc.NewReader(b)
	key := r.ViewField()
	p := r.Rest()
	if err := r.Err(); err != nil {
		return valueDelta{}, err
	}
	d, err := enc.DecodeDelta(p, pitree.MaxRecord)
	return valueDelta{key: key, Delta: d}, err
}

// redoUpdate applies an update's payload to n. It makes decUpdate's checks
// and applies the delta in the same walk of its runs (enc.ApplyDelta): in
// the node's record buffer when the value keeps its length, as most
// updates' values do. A payload refused leaves n as it was.
func redoUpdate(n *Node, b []byte) error {
	r := enc.NewReader(b)
	key := r.ViewField()
	p := r.Rest()
	if err := r.Err(); err != nil {
		return err
	}
	i, ok := n.search(key)
	if !ok {
		_, err := enc.DecodeDelta(p, pitree.MaxRecord)
		return err
	}
	cur := n.entry(i).Value
	var scratch [256]byte
	v, err := enc.ApplyDelta(scratch[:0], cur, p, pitree.MaxRecord)
	if err != nil {
		return fmt.Errorf("key %x: %w", key, err)
	}
	if len(v) != len(cur) || len(v) == 0 {
		n.setValue(i, enc.NilIfEmpty(v))
	}
	return nil
}

// inverse is the delta that undoes d.
func (d valueDelta) inverse() valueDelta {
	d.Delta = d.Delta.Inverse()
	return d
}

// apply appends to dst[:0] the value d makes of cur, which must be the
// length of the value d applies to.
func (d valueDelta) apply(dst, cur []byte) ([]byte, error) {
	v, err := d.Delta.Apply(dst, cur)
	if err != nil {
		return nil, fmt.Errorf("key %x: %w", d.key, err)
	}
	return v, nil
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
// root spans everything over two terms, each at its child's low key.
var nodeKinds = pitree.NodeKinds[*Node]{
	Format: KindFormatNode, Restore: KindRestoreImage, Grow: KindRootGrow,
	Image: encNodeImage, Decode: decNodeImage, Layout: termLayout,
	Splits: []pitree.Cut[*Node]{&halfCut{}},
	Term:   func(dst []byte, n *Node, pid storage.PageID) []byte { return appendTerm(dst, n.Low, pid) },
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

// Register installs the Π-tree record kinds into reg. pageOriented selects
// the record-undo discipline for data records (§4.2): when true, undo is
// on the same page and splits that move uncommitted updates must run
// inside the updating transaction under a move lock; when false, record
// undo re-traverses the tree, and all splits run as independent atomic
// actions.
func Register(reg *storage.Registry, pageOriented bool) *Binding {
	b := &Binding{pageOriented: pageOriented}
	nodeKinds.Register(reg)
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
	// An update's redo applies its delta to the value found, and its
	// undo is the inverse delta.
	updateHandler := storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error { return redoUpdate(n, rec.Payload) }),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			d, err := decUpdate(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return storage.Compensation{Kind: KindUpdateRecord, Payload: appendDelta(nil, d.inverse())}, nil
		},
	}
	if !pageOriented {
		// Non-page-oriented record undo: compensate by re-traversing the
		// tree to wherever the record lives now. Structure changes never
		// need undoing against moved records, which is why this mode lets
		// even data-node splits run outside the transaction (§6).
		// An insert's undo deletes its entry, a delete's re-inserts it, an update's applies the inverse delta.
		undo := pitree.LogicalUndo(&b.Binding, func(t *Tree, rec *wal.Record) (*pitree.Kernel[*Node, keys.Key], pitree.Undoer[*Node, keys.Key], error) {
			if rec.Kind == KindUpdateRecord {
				d, err := decUpdate(rec.Payload)
				inv := d.inverse()
				w := t.oneWrite(opUpdate, d.key, nil)
				w.undo, w.delta = true, &inv
				return t.kern, w, err
			}
			op := opInsert
			if rec.Kind == KindInsertRecord {
				op = opDelete
			}
			e, err := leafRecord(rec.Payload)
			w := t.oneWrite(op, e.Key, e.Value)
			w.undo = true
			return t.kern, w, err
		})
		insertHandler.LogicalUndo, deleteHandler.LogicalUndo, updateHandler.LogicalUndo = undo, undo, undo
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
