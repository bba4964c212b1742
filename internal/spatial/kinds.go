package spatial

import (
	"fmt"

	"repro/internal/enc"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Log record kinds owned by the spatial Π-tree (range 60..75).
const (
	// KindFormat installs a complete node image on a fresh page.
	KindFormat wal.Kind = 60
	// KindRestore replaces a node with a stored pre-image; only ever a CLR,
	// the compensation for KindRootGrow, which keeps an image.
	KindRestore wal.Kind = 61
	// KindSplitOff delegates one half of a node's direct region to a new
	// sibling: entries in the half leave, index terms cut by the
	// hyperplane are clipped (kept AND copied), and a sibling term is
	// appended. Its inverse is KindAbsorbSib of the sibling's entries, and
	// it is that kind's.
	KindSplitOff wal.Kind = 62
	// KindInsertPoint adds a data entry.
	KindInsertPoint wal.Kind = 63
	// KindRemovePoint deletes a data entry.
	KindRemovePoint wal.Kind = 64
	// KindPostTerm adds an index term.
	KindPostTerm wal.Kind = 65
	// KindRemoveTerm deletes an index term by child.
	KindRemoveTerm wal.Kind = 66
	// KindRootGrow turns the root into an index node one level up.
	KindRootGrow wal.Kind = 67
	// KindAbsorbSib re-absorbs the node's NEWEST delegated sibling region
	// (Options.Reclaim): the last sibling term is removed and the direct
	// region grows back to their union — which is exactly the node's
	// pre-split direct region, and therefore rectangular, only for the
	// newest term (delegations nest LIFO). Redo derives the cut from the
	// node's own state; the payload names it (for undo, which splits the
	// sibling off again) and lists the entries that come back with the
	// region: none when the absorber runs, its victim being empty, and what
	// the split moved out when the record compensates a KindSplitOff. The
	// freed victim's page is returned to the store in the same atomic
	// action, alongside the removal of its parent index term.
	KindAbsorbSib wal.Kind = 68
)

// --- payloads ----------------------------------------------------------------

// An entry's fate under a split of its node.
const (
	fateKept      byte = iota // stays as it is
	fateLeft                  // leaves for the sibling
	fateClipped               // index term cut by the plane: stays AND is copied, newly marked Clipped
	fateReclipped             // the same, but marked before already
)

// splitFates lists, for an index node about to be split, each term's fate
// in entry order. The split record carries it: undo then knows which of
// the sibling's terms left this node and where they stood (index entries
// are unordered), and which clipped marks the split set. Data entries are
// sorted and never clipped, so a data node's record carries none.
func splitFates(n *Node, alongX bool, coord uint64) []byte {
	if n.IsData() {
		return nil
	}
	kept, off := n.Direct.Split(alongX, coord)
	fates := make([]byte, n.Len())
	for i := range fates {
		e := n.entry(i)
		switch {
		case !e.Rect.Intersects(off):
			fates[i] = fateKept
		case !e.Rect.Intersects(kept):
			fates[i] = fateLeft
		case e.Clipped:
			fates[i] = fateReclipped
		default:
			fates[i] = fateClipped
		}
	}
	return fates
}

// splitOff payload: the plane, the new sibling and the index terms' fates.
// What left the node is in the sibling's format record, logged just before.
func encSplitOff(alongX bool, coord uint64, sib storage.PageID, fates []byte) []byte {
	var w enc.Writer
	w.Bool(alongX)
	w.U64(coord)
	w.U64(uint64(sib))
	w.Field(fates)
	return w.Bytes()
}

func decSplitOff(b []byte) (alongX bool, coord uint64, sib storage.PageID, fates []byte, err error) {
	r := enc.NewReader(b)
	alongX, coord, sib = readCut(r)
	fates = r.Field()
	return alongX, coord, sib, fates, r.Err()
}

// readCut reads the plane and the sibling's page at the head of a split's
// and an absorb's payload.
func readCut(r *enc.Reader) (alongX bool, coord uint64, sib storage.PageID) {
	return r.Bool(), r.U64(), storage.PageID(r.U64())
}

// returning is what an absorb brings back into the node besides the region:
// entries, for an index node each with the position it goes to (ascending),
// and the positions of the terms whose Clipped mark is cleared.
type returning struct {
	entries enc.Records
	pos     []uint16
	unclip  []uint16
}

// absorbSib payload: the cut that made the absorbed sibling — plane and
// page, as in the split record — and what returns, its entries last: they
// are records of the level of the node the payload applies to, which only
// its redo knows.
func encAbsorbSib(alongX bool, coord uint64, sib storage.PageID, ret returning) []byte {
	var w enc.Writer
	w.Bool(alongX)
	w.U64(coord)
	w.U64(uint64(sib))
	for _, ps := range [][]uint16{ret.pos, ret.unclip} {
		w.U32(uint32(len(ps)))
		for _, p := range ps {
			w.U16(p)
		}
	}
	encodeEntries(&w, &ret.entries)
	return w.Bytes()
}

// decAbsorbSib reads what an absorb brings back, its entries as records of
// level; the cut is read by readCut alone.
func decAbsorbSib(b []byte, level int) (ret returning, err error) {
	r := enc.NewReader(b)
	readCut(r)
	for _, ps := range []*[]uint16{&ret.pos, &ret.unclip} {
		n := int(r.U32())
		if r.Err() != nil || n > r.Remaining()/2 {
			return ret, enc.ErrTruncated
		}
		for i := 0; i < n; i++ {
			*ps = append(*ps, r.U16())
		}
	}
	ret.entries = decodeEntries(r, level)
	if !(len(ret.pos) == 0 || len(ret.pos) == ret.entries.Len()) {
		return ret, fmt.Errorf("spatial: absorb record with %d entries and %d positions", ret.entries.Len(), len(ret.pos))
	}
	return ret, r.Err()
}

// nodeKinds is the kernel's description of the tree's node images. A grown
// root directly contains the whole space and has no sibling terms.
var nodeKinds = pitree.NodeKinds[*Node]{
	Format: KindFormat, Restore: KindRestore, Grow: KindRootGrow,
	Image: encNodeImage, Decode: decNodeImage, Layout: termLayout,
	Splits: []pitree.Cut[*Node]{&planeCut{}},
	Term: func(dst []byte, n *Node, pid storage.PageID) []byte {
		return appendTerm(dst, Entry{Rect: n.Direct, Child: pid})
	},
	Raise: func(n *Node, terms enc.Records) {
		n.Level++
		n.recs = terms.Clone()
		n.Direct = FullSpace()
		n.Sibs = nil
	},
}

// applySplitOff is the shared runtime/redo semantics of KindSplitOff.
func applySplitOff(n *Node, alongX bool, coord uint64, sib storage.PageID) {
	kept, off := n.Direct.Split(alongX, coord)
	n.recs, _ = splitPick(n, kept, off, false)
	n.Direct = kept
	n.Sibs = append(n.Sibs, SibTerm{Rect: off, Pid: sib})
}

// splitPick copies out one side of a split of n into regions kept and off:
// what stays (the points in kept; every term that does not lie wholly in
// off) or, with leaving set, what the sibling receives (the points in off;
// every term that reaches into off). A term that reaches into both regions
// is on both sides and marked Clipped: the child's region crosses the
// hyperplane, so the child is now multi-parent (§3.2.2, §3.3).
func splitPick(n *Node, kept, off Rect, leaving bool) (picked enc.Records, clipped int) {
	var idx, cut []int
	for i := 0; i < n.Len(); i++ {
		if n.IsData() {
			if p := n.pointAt(i); (leaving && off.Contains(p)) || (!leaving && kept.Contains(p)) {
				idx = append(idx, i)
			}
			continue
		}
		r, _ := n.termAt(i)
		inOff, inKept := r.Intersects(off), r.Intersects(kept)
		if (leaving && inOff) || (!leaving && (inKept || !inOff)) {
			if inOff && inKept {
				cut = append(cut, len(idx))
			}
			idx = append(idx, i)
		}
	}
	picked = n.recs.Pick(idx)
	for _, i := range cut {
		setClipped(&picked, i, true)
	}
	return picked, len(cut)
}

// applyAbsorbSib is the shared runtime/redo semantics of KindAbsorbSib:
// pop the newest sibling term and grow the direct region back over it,
// then take in what returns with it.
func applyAbsorbSib(n *Node, ret returning) error {
	if len(n.Sibs) == 0 {
		return fmt.Errorf("spatial: absorb into a node without sibling terms")
	}
	s := n.Sibs[len(n.Sibs)-1]
	n.Sibs = n.Sibs[:len(n.Sibs)-1]
	n.Direct = rectUnion(n.Direct, s.Rect)
	for _, p := range ret.unclip {
		if int(p) >= n.Len() {
			return fmt.Errorf("spatial: absorb un-clips term %d of %d", p, n.Len())
		}
		setClipped(&n.recs, int(p), false)
	}
	for i := 0; i < ret.entries.Len(); i++ {
		e := viewEntry(n.Level, ret.entries.At(i))
		if n.IsData() {
			n.insertPoint(e)
			continue
		}
		at := n.Len()
		if i < len(ret.pos) {
			at = min(int(ret.pos[i]), at)
		}
		n.insertAt(at, e)
	}
	return nil
}

// unsplitOff works out, from a split's fates and the sibling it made, what
// returns to the split node when the split is undone.
func unsplitOff(fates []byte, sib *Node) (returning, error) {
	if sib.IsData() {
		return returning{entries: sib.recs}, nil
	}
	var ret returning
	var left []int       // sib's terms that left the split node
	next, stayed := 0, 0 // cursors: into sib's entries, into the split node's
	for i, f := range fates {
		if f != fateKept && next >= sib.Len() {
			return ret, fmt.Errorf("spatial: split fates name more terms than the sibling's %d", sib.Len())
		}
		switch f {
		case fateLeft:
			left = append(left, next)
			ret.pos = append(ret.pos, uint16(i))
			next++
			continue
		case fateClipped:
			ret.unclip = append(ret.unclip, uint16(stayed))
			next++
		case fateReclipped:
			next++
		}
		stayed++
	}
	ret.entries = sib.recs.Pick(left)
	return ret, nil
}

// rectUnion returns the bounding rectangle of a and b; the absorber only
// unions halves of one split, for which the bound IS the exact union.
func rectUnion(a, b Rect) Rect {
	return Rect{
		X0: min(a.X0, b.X0), Y0: min(a.Y0, b.Y0),
		X1: max(a.X1, b.X1), Y1: max(a.Y1, b.Y1),
	}
}

// splitHelps reports whether cutting n at the plane actually shrinks
// it: with heavy clipping a split can leave (nearly) all terms in both
// halves, and a split that does not reduce the node is useless — the
// caller soft-overflows instead of splitting forever.
func splitHelps(n *Node, alongX bool, coord uint64) bool {
	kept, off := n.Direct.Split(alongX, coord)
	keptN, offN := 0, 0
	for i := 0; i < n.Len(); i++ {
		if n.IsData() {
			if kept.Contains(n.pointAt(i)) {
				keptN++
			} else {
				offN++
			}
			continue
		}
		r, _ := n.termAt(i)
		if r.Intersects(kept) {
			keptN++
		}
		if r.Intersects(off) {
			offN++
		}
	}
	return keptN < n.Len() && offN < n.Len() && keptN > 0 && offN > 0
}

// --- binding & registration ---------------------------------------------------

// Binding connects record kinds to live trees for logical undo.
type Binding = pitree.Binding[*Tree]

// Register installs the spatial record kinds. Point undo is logical
// (re-traversal), so every structure change is an independent atomic
// action.
func Register(reg *storage.Registry) *Binding {
	b := new(Binding)
	// A point record's undo: an insert's removes the point, a removal's
	// puts it back.
	undo := pitree.LogicalUndo(b, func(t *Tree, rec *wal.Record) (*pitree.Kernel[*Node, Point], pitree.Undoer[*Node, Point], error) {
		e, err := decRecord(0, rec.Payload)
		return t.kern, &pointWrite{t: t, p: e.P, value: e.Value, del: rec.Kind == KindInsertPoint, undo: true}, err
	})
	nodeKinds.Register(reg)
	reg.Register(KindInsertPoint, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decRecord(0, rec.Payload)
			if err != nil {
				return err
			}
			n.insertPoint(e)
			return nil
		}),
		LogicalUndo: undo,
	})
	reg.Register(KindRemovePoint, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decRecord(0, rec.Payload)
			if err != nil {
				return err
			}
			if i, ok := n.findPoint(e.P); ok {
				n.recs.Delete(i)
			}
			return nil
		}),
		LogicalUndo: undo,
	})
	reg.Register(KindPostTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decRecord(1, rec.Payload)
			if err != nil {
				return err
			}
			if _, dup := n.termFor(e.Child); !dup {
				n.insertAt(n.Len(), e)
			}
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindRemoveTerm, Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindRemoveTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decRecord(1, rec.Payload)
			if err != nil {
				return err
			}
			if i, ok := n.termFor(e.Child); ok {
				n.recs.Delete(i)
			}
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindPostTerm, Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindAbsorbSib, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			ret, err := decAbsorbSib(rec.Payload, n.Level)
			if err != nil {
				return err
			}
			return applyAbsorbSib(n, ret)
		}),
		// Undo splits the sibling off again, at the plane that made it.
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			r := enc.NewReader(rec.Payload)
			alongX, coord, sib := readCut(r)
			if r.Err() != nil {
				return storage.Compensation{}, r.Err()
			}
			return storage.Compensation{Kind: KindSplitOff, Payload: encSplitOff(alongX, coord, sib, nil)}, nil
		},
	})
	return b
}
