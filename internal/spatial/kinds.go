package spatial

import (
	"repro/internal/enc"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Log record kinds owned by the spatial Π-tree (range 60..75).
const (
	// KindFormat installs a complete node image on a fresh page.
	KindFormat wal.Kind = 60
	// KindRestore replaces a node with a stored pre-image (compensation).
	KindRestore wal.Kind = 61
	// KindSplitOff delegates one half of a node's direct region to a new
	// sibling: entries in the half leave, index terms cut by the
	// hyperplane are clipped (kept AND copied), and a sibling term is
	// appended.
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
	// newest term (delegations nest LIFO). Payload: the node's pre-image
	// (for undo); redo derives the cut from the node's own state. The
	// freed victim's page is returned to the store in the same atomic
	// action, alongside the removal of its parent index term.
	KindAbsorbSib wal.Kind = 68
)

// --- payloads ----------------------------------------------------------------

func encSplitOff(alongX bool, coord uint64, sib storage.PageID, pre *Node) []byte {
	var w enc.Writer
	w.Bool(alongX)
	w.U64(coord)
	w.U64(uint64(sib))
	encodeNode(&w, pre)
	return w.Bytes()
}

func decSplitOff(b []byte) (alongX bool, coord uint64, sib storage.PageID, pre *Node, err error) {
	r := enc.NewReader(b)
	alongX = r.Bool()
	coord = r.U64()
	sib = storage.PageID(r.U64())
	pre, err = decodeNode(r)
	return
}

func encPoint(e Entry) []byte {
	var w enc.Writer
	w.U64(e.P.X)
	w.U64(e.P.Y)
	w.Bytes32(e.Value)
	return w.Bytes()
}

func decPoint(b []byte) (Entry, error) {
	r := enc.NewReader(b)
	var e Entry
	e.P.X = r.U64()
	e.P.Y = r.U64()
	e.Value = r.Bytes32()
	return e, r.Err()
}

func encTerm(e Entry) []byte {
	var w enc.Writer
	encodeRect(&w, e.Rect)
	w.U64(uint64(e.Child))
	w.Bool(e.Clipped)
	return w.Bytes()
}

func decTerm(b []byte) (Entry, error) {
	r := enc.NewReader(b)
	var e Entry
	e.Rect = decodeRect(r)
	e.Child = storage.PageID(r.U64())
	e.Clipped = r.Bool()
	return e, r.Err()
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

// applySplitOff is the shared runtime/redo semantics of KindSplitOff.
func applySplitOff(n *Node, alongX bool, coord uint64, sib storage.PageID) {
	var kept, off Rect
	if alongX {
		kept, off = n.Direct.SplitX(coord)
	} else {
		kept, off = n.Direct.SplitY(coord)
	}
	out := n.Entries[:0:0]
	for _, e := range n.Entries {
		if n.IsData() {
			if kept.Contains(e.P) {
				out = append(out, e)
			}
			continue
		}
		switch {
		case !e.Rect.Intersects(off):
			out = append(out, e) // fully kept
		case !e.Rect.Intersects(kept):
			// fully delegated: leaves this node
		default:
			// Clipped: the child's region crosses the hyperplane, so its
			// term stays here AND goes to the sibling — the child is now
			// multi-parent (§3.2.2, §3.3).
			e.Clipped = true
			out = append(out, e)
		}
	}
	n.Entries = out
	n.Direct = kept
	n.Sibs = append(n.Sibs, SibTerm{Rect: off, Pid: sib})
}

// splitOffContents returns what the new sibling receives.
func splitOffContents(pre *Node, alongX bool, coord uint64) (entries []Entry, off Rect, clipped int) {
	var kept Rect
	if alongX {
		kept, off = pre.Direct.SplitX(coord)
	} else {
		kept, off = pre.Direct.SplitY(coord)
	}
	for _, e := range pre.Entries {
		if pre.IsData() {
			if off.Contains(e.P) {
				c := e
				if e.Value != nil {
					c.Value = append([]byte(nil), e.Value...)
				}
				entries = append(entries, c)
			}
			continue
		}
		switch {
		case !e.Rect.Intersects(off):
		case !e.Rect.Intersects(kept):
			entries = append(entries, e)
		default:
			c := e
			c.Clipped = true
			entries = append(entries, c)
			clipped++
		}
	}
	return entries, off, clipped
}

// encAbsorbSib carries the delegator's pre-image for compensation.
func encAbsorbSib(pre *Node) []byte { return encNodeImage(pre) }

// applyAbsorbSib is the shared runtime/redo semantics of KindAbsorbSib:
// pop the newest sibling term and grow the direct region back over it.
func applyAbsorbSib(n *Node) {
	s := n.Sibs[len(n.Sibs)-1]
	n.Sibs = n.Sibs[:len(n.Sibs)-1]
	n.Direct = rectUnion(n.Direct, s.Rect)
}

// rectUnion returns the bounding rectangle of a and b; the absorber only
// unions halves of one split, for which the bound IS the exact union.
func rectUnion(a, b Rect) Rect {
	return Rect{
		X0: minU(a.X0, b.X0), Y0: minU(a.Y0, b.Y0),
		X1: maxU(a.X1, b.X1), Y1: maxU(a.Y1, b.Y1),
	}
}

// splitHelps reports whether cutting pre at the plane actually shrinks
// it: with heavy clipping a split can leave (nearly) all terms in both
// halves, and a split that does not reduce the node is useless — the
// caller soft-overflows instead of splitting forever.
func splitHelps(pre *Node, alongX bool, coord uint64) bool {
	var kept, off Rect
	if alongX {
		kept, off = pre.Direct.SplitX(coord)
	} else {
		kept, off = pre.Direct.SplitY(coord)
	}
	keptN, offN := 0, 0
	for _, e := range pre.Entries {
		if pre.IsData() {
			if kept.Contains(e.P) {
				keptN++
			} else {
				offN++
			}
			continue
		}
		ik := e.Rect.Intersects(kept)
		io := e.Rect.Intersects(off)
		if ik {
			keptN++
		}
		if io {
			offN++
		}
	}
	return keptN < len(pre.Entries) && offN < len(pre.Entries) && keptN > 0 && offN > 0
}

// --- binding & registration ---------------------------------------------------

// Binding connects record kinds to live trees for logical undo.
type Binding = pitree.Binding[*Tree]

// Register installs the spatial record kinds. Point undo is logical
// (re-traversal), so every structure change is an independent atomic
// action.
func Register(reg *storage.Registry) *Binding {
	b := new(Binding)

	restore := func(rec *wal.Record, pre *Node) (storage.Compensation, error) {
		return storage.Compensation{Kind: KindRestore, StoreID: rec.StoreID, PageID: storage.PageID(rec.PageID), Payload: encNodeImage(pre)}, nil
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
	reg.Register(KindRestore, storage.Handler{
		Redo: func(f *storage.Frame, rec *wal.Record) error {
			n, err := decodeNode(enc.NewReader(rec.Payload))
			if err != nil {
				return err
			}
			f.Data = n
			return nil
		},
	})
	reg.Register(KindSplitOff, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			alongX, coord, sib, _, err := decSplitOff(rec.Payload)
			if err != nil {
				return err
			}
			applySplitOff(n, alongX, coord, sib)
			return nil
		}),
		MakeUndo: func(rec *wal.Record) (storage.Compensation, error) {
			_, _, _, pre, err := decSplitOff(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return restore(rec, pre)
		},
	})
	reg.Register(KindInsertPoint, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decPoint(rec.Payload)
			if err != nil {
				return err
			}
			n.insertPoint(e)
			return nil
		}),
		LogicalUndo: func(rec *wal.Record) error {
			t, err := b.Tree(rec.StoreID)
			if err != nil {
				return err
			}
			e, err := decPoint(rec.Payload)
			if err != nil {
				return err
			}
			return t.logicalUndoInsert(rec, e)
		},
	})
	reg.Register(KindRemovePoint, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decPoint(rec.Payload)
			if err != nil {
				return err
			}
			n.removePoint(e.P)
			return nil
		}),
		LogicalUndo: func(rec *wal.Record) error {
			t, err := b.Tree(rec.StoreID)
			if err != nil {
				return err
			}
			e, err := decPoint(rec.Payload)
			if err != nil {
				return err
			}
			return t.logicalUndoRemove(rec, e)
		},
	})
	reg.Register(KindPostTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decTerm(rec.Payload)
			if err != nil {
				return err
			}
			if _, dup := n.termFor(e.Child); !dup {
				n.Entries = append(n.Entries, e)
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
	reg.Register(KindAbsorbSib, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			applyAbsorbSib(n)
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
			n.Direct = FullSpace()
			n.Sibs = nil
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
