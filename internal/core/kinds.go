package core

import (
	"encoding/binary"
	"errors"
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

// An update's payload is one delta that turns the old value into the new
// one (DESIGN.md §16): the key, the old and new lengths as uvarints, then
// old ⊕ new — the shorter value zero-padded — as runs, each a uvarint gap of
// zero bytes skipped since the previous run (or the start), a uvarint
// length and that many bytes. A run starts and ends at a nonzero byte, and
// a gap of at most maxRunZeros zero bytes, no longer than a run's header,
// stays inside its run. XOR is its own inverse: the delta with its two
// lengths swapped turns the new value back into the old, and that is the
// compensation of both undo disciplines. A delta applied twice corrupts the
// value, so it is applied only behind the pageLSN test (storage.Registry's
// redo, which restart redo, write elision's replay and a rollback's CLR all
// go through) or, by a logical undo, under the latch of the leaf whose CLR
// logs it.
type valueDelta struct {
	key keys.Key
	// from and to are the lengths of the value the delta applies to and of
	// the value it makes.
	from, to int
	// runs is the encoded runs of old ⊕ new; it aliases the payload.
	runs []byte
}

// maxRunZeros is the longest zero gap kept inside a run: two header bytes
// at least would cost as much.
const maxRunZeros = 2

// errBadDelta reports an update payload whose lengths or runs do not hold
// together.
var errBadDelta = errors.New("core: malformed update delta")

// appendDelta appends d's payload to dst.
func appendDelta(dst []byte, d valueDelta) []byte {
	dst = enc.AppendBytes32(dst, d.key)
	dst = binary.AppendUvarint(dst, uint64(d.from))
	dst = binary.AppendUvarint(dst, uint64(d.to))
	return append(dst, d.runs...)
}

// appendUpdate appends the payload of an update of key's value from old to
// new.
func appendUpdate(dst []byte, key keys.Key, old, new []byte) []byte {
	x := func(i int) byte {
		var a, b byte
		if i < len(old) {
			a = old[i]
		}
		if i < len(new) {
			b = new[i]
		}
		return a ^ b
	}
	dst = appendDelta(dst, valueDelta{key: key, from: len(old), to: len(new)})
	n, last := max(len(old), len(new)), 0
	for i := 0; i < n; i++ {
		if x(i) == 0 {
			continue
		}
		end := i + 1 // one past the run's last nonzero byte
		for j := end; j < n && j-end <= maxRunZeros; j++ {
			if x(j) != 0 {
				end = j + 1
			}
		}
		dst = binary.AppendUvarint(dst, uint64(i-last))
		dst = binary.AppendUvarint(dst, uint64(end-i))
		for ; i < end; i++ {
			dst = append(dst, x(i))
		}
		last = end
	}
	return dst
}

// decUpdate decodes an update's delta. It accepts only what appendUpdate
// writes, so a payload it accepts re-encodes to the same bytes: minimal
// uvarints, lengths within the largest record a tree admits, and runs that
// start and end at a nonzero byte, hold no longer zero gap than
// maxRunZeros, lie apart by more than that and end within the longer
// value. Each run is bounded by that length before anything is sized by it.
func decUpdate(b []byte) (valueDelta, error) {
	r := enc.NewReader(b)
	key := r.View32()
	p := r.Rest()
	if err := r.Err(); err != nil {
		return valueDelta{}, err
	}
	from, p, ok1 := minUvarint(p, pitree.MaxRecord)
	to, p, ok2 := minUvarint(p, pitree.MaxRecord)
	d := valueDelta{key: key, from: int(from), to: int(to), runs: p}
	span, ok := max(from, to), ok1 && ok2
	for at, first := uint64(0), true; ok && len(p) > 0; first = false {
		gap, q, okGap := minUvarint(p, span-at)
		n, q, okLen := minUvarint(q, span-at-gap)
		ok = okGap && okLen && n > 0 && n <= uint64(len(q)) && (first || gap > maxRunZeros) && compactRun(q[:n])
		if ok {
			at, p = at+gap+n, q[n:]
		}
	}
	if !ok {
		return valueDelta{}, fmt.Errorf("%w: lengths %d -> %d, runs %x", errBadDelta, from, to, d.runs)
	}
	return d, nil
}

// minUvarint reads a minimal uvarint of at most max off the front of b.
func minUvarint(b []byte, max uint64) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > max || (n > 1 && b[n-1] == 0) {
		return 0, b, false
	}
	return v, b[n:], true
}

// compactRun reports whether run starts and ends at a nonzero byte and
// holds no zero gap longer than maxRunZeros.
func compactRun(run []byte) bool {
	zeros := 0
	for _, c := range run {
		if c != 0 {
			zeros = 0
		} else if zeros++; zeros > maxRunZeros {
			return false
		}
	}
	return run[0] != 0 && zeros == 0
}

// inverse is the delta that undoes d.
func (d valueDelta) inverse() valueDelta {
	d.from, d.to = d.to, d.from
	return d
}

// apply appends to dst[:0] the value d makes of cur, which must be the
// length of the value d applies to. d is one decUpdate accepted.
func (d valueDelta) apply(dst, cur []byte) ([]byte, error) {
	if len(cur) != d.from {
		return nil, fmt.Errorf("%w: key %x holds %d bytes, the delta applies to %d", errBadDelta, d.key, len(cur), d.from)
	}
	keep := min(d.from, d.to)
	dst = append(append(dst[:0], cur[:keep]...), make([]byte, d.to-keep)...)
	for at, p := 0, d.runs; len(p) > 0; {
		gap, n := binary.Uvarint(p)
		p = p[n:]
		l, n := binary.Uvarint(p)
		p = p[n:]
		at += int(gap)
		for _, c := range p[:l] {
			if at < d.to {
				dst[at] ^= c
			}
			at++
		}
		p = p[l:]
	}
	return dst, nil
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

// logicalUndo returns the logical undo of a data record (§4.2, §6): the
// leaf write dec reads from its payload, applied by the kernel's Compensate
// to whatever leaf holds the key now.
func (b *Binding) logicalUndo(dec func([]byte) (leafWrite, error)) func(*wal.Record, storage.CLRLogger) error {
	return func(rec *wal.Record, tx storage.CLRLogger) error {
		t, err := b.Tree(rec.StoreID)
		if err != nil {
			return err
		}
		w, err := dec(rec.Payload)
		if err != nil {
			return err
		}
		w.t, w.undo = t, true
		return t.kern.Compensate(tx, rec.PrevLSN, &w)
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
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			d, err := decUpdate(rec.Payload)
			if err != nil {
				return err
			}
			if i, ok := n.search(d.key); ok {
				var scratch [256]byte
				v, err := d.apply(scratch[:0], n.entry(i).Value)
				if err != nil {
					return err
				}
				n.setValue(i, enc.NilIfEmpty(v))
			}
			return nil
		}),
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
		undoBy := func(op writeOp) func([]byte) (leafWrite, error) {
			return func(p []byte) (leafWrite, error) {
				e, err := leafRecord(p)
				return leafWrite{op: op, ks: []keys.Key{e.Key}, vals: [][]byte{e.Value}}, err
			}
		}
		insertHandler.LogicalUndo = b.logicalUndo(undoBy(opDelete))
		deleteHandler.LogicalUndo = b.logicalUndo(undoBy(opInsert))
		updateHandler.LogicalUndo = b.logicalUndo(func(p []byte) (leafWrite, error) {
			d, err := decUpdate(p)
			inv := d.inverse()
			return leafWrite{op: opUpdate, ks: []keys.Key{d.key}, delta: &inv}, err
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
