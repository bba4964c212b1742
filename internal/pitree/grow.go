package pitree

import (
	"bytes"
	"fmt"

	"repro/internal/enc"
	"repro/internal/storage"
	"repro/internal/wal"
)

// NodeKinds describes a tree's node images to the kernel. One value per
// tree drives every format (Kernel.Format, Create), the one root growth
// (Kernel.Grow), and the redo and undo of the three record kinds that
// carry a whole image (Register).
type NodeKinds[N any] struct {
	// Format installs an image on a fresh page; Restore puts a node's image
	// back, only ever as a CLR; Grow raises the root one level (§5.3 Space
	// Test, root case).
	Format, Restore, Grow wal.Kind
	// Image encodes a node; Decode decodes one, which may alias the bytes.
	Image  func(n N) []byte
	Decode func(image []byte) (N, error)
	// Layout is the shape of an index term's record.
	Layout enc.Layout
	// Raise makes n an index node one level up over the two terms, in that
	// order. The terms may alias a log payload: Raise copies what it keeps.
	Raise func(n N, terms enc.Records)
}

// Register installs the handlers of the three kinds into reg. A format or
// a restore is redone by decoding its payload into the frame; a growth by
// raising the node over the terms its record carries, and it is undone by
// a restore of the pre-image the record carries as well.
func (nk *NodeKinds[N]) Register(reg *storage.Registry) {
	image := storage.Handler{Redo: func(f *storage.Frame, rec *wal.Record) error {
		// A copy: the node may alias its image, and the log keeps its bytes.
		n, err := nk.Decode(bytes.Clone(rec.Payload))
		if err == nil {
			f.Data = n
		}
		return err
	}, Image: true}
	reg.Register(nk.Format, image)
	reg.Register(nk.Restore, image)
	reg.Register(nk.Grow, storage.Handler{
		Redo: RedoNode(func(n N, rec *wal.Record) error {
			terms, _, err := nk.decodeGrow(rec.Payload)
			if err == nil {
				nk.Raise(n, terms)
			}
			return err
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			_, pre, err := nk.decodeGrow(rec.Payload)
			if err != nil {
				return storage.Compensation{}, err
			}
			return storage.Compensation{Kind: nk.Restore, Payload: nk.Image(pre)}, nil
		},
	})
}

// decodeGrow reads a growth's payload: the two terms, then the root's image
// as it was. Both alias b.
func (nk *NodeKinds[N]) decodeGrow(b []byte) (terms enc.Records, pre N, err error) {
	terms, n, err := enc.Load(b, 2, nk.Layout)
	if err == nil {
		pre, err = nk.Decode(b[n:])
	}
	return terms, pre, err
}

// Format installs n as the contents of the freshly allocated page pid and
// logs its image through lg (see formatPage). An image larger than the
// page is refused with ErrRecordTooLarge before anything is logged: the
// page file would refuse it at write-back.
func (k *Kernel[N, K]) Format(o *Op[N], lg storage.UpdateLogger, pid storage.PageID, n N) error {
	img := k.kinds.Image(n)
	if len(img) > k.room {
		return fmt.Errorf("%w: %s page %d image %dB, room %dB", ErrRecordTooLarge, k.s.Name, pid, len(img), k.room)
	}
	return formatPage(o.s.Store.Pool, &o.Tr, o.Rank(k.sp.Level(n)), lg, pid, n, k.kinds.Format, img)
}

// Grow is the root case of the §5.3 space test, the one growth of every
// Π-tree: the root never moves and is never de-allocated (§5.2.2 relies on
// it). Its contents go to two new nodes and it becomes an index node one
// level up over them. The tree allocates pidA and pidB as part of lg's
// action and builds their nodes: b, the part a split would hand to a new
// sibling, and a, what that split would leave, naming b as its sibling.
// terms are the records of their index terms, a's first. Grow formats b, then a, logs the growth — the terms and the
// root's image as it was, for the undo — and raises the X-latched root.
func (k *Kernel[N, K]) Grow(o *Op[N], lg storage.UpdateLogger, root *Ref[N], pidA, pidB storage.PageID, a, b N, terms []byte) error {
	recs, _, err := enc.Load(terms, 2, k.kinds.Layout)
	if err != nil {
		return err
	}
	if err := k.Format(o, lg, pidB, b); err != nil {
		return err
	}
	if err := k.Format(o, lg, pidA, a); err != nil {
		return err
	}
	lg.LogUpdate(root.F, k.kinds.Grow, append(terms, k.kinds.Image(root.N)...))
	k.kinds.Raise(root.N, recs)
	return nil
}
