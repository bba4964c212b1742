package pitree

import (
	"bytes"
	"fmt"

	"repro/internal/enc"
	"repro/internal/storage"
	"repro/internal/wal"
)

// NodeKinds describes a tree's node images to the kernel. One value per
// tree drives every format (Kernel.format, Create), every split and the one
// root growth (Kernel.Split), and the redo and undo of the record kinds
// that carry a whole image or cut a node (Register).
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
	// Term appends to dst the record of the index term for n on page pid:
	// what a grown root holds for each of its two new children.
	Term func(dst []byte, n N, pid storage.PageID) []byte
	// Raise makes n an index node one level up over the two terms, in that
	// order. The terms may alias a log payload: Raise copies what it keeps.
	Raise func(n N, terms enc.Records)
	// Splits holds one zero-value cut per split record kind of the tree.
	Splits []Cut[N]
}

// Register installs the handlers of the image kinds and the split kinds
// into reg. A format or a restore is redone by decoding its payload into
// the frame; a growth by raising the node over the terms its record
// carries, and it is undone by a restore of the pre-image the record
// carries as well. A split is redone by its cut's Apply and undone by its
// cut's Undo, handed the sibling's image from the format record the split
// logged just before its own.
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
	for _, c := range nk.Splits {
		reg.Register(c.Kind(), storage.Handler{
			Redo: RedoNode(func(n N, rec *wal.Record) error { return c.Apply(n, rec.Payload) }),
			MakeUndo: func(rec *wal.Record, log storage.LogReader) (storage.Compensation, error) {
				return c.Undo(rec.Payload, func(sib storage.PageID) (n N, img []byte, err error) {
					if img, err = siblingImage(log, rec, nk.Format, sib); err == nil {
						n, err = nk.Decode(img)
					}
					return n, img, err
				})
			},
		})
	}
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

// format installs n as the contents of the freshly allocated page pid and
// logs its image through lg (see formatPage). An image larger than the
// page is refused with ErrRecordTooLarge before anything is logged: the
// page file would refuse it at write-back.
func (k *Kernel[N, K]) format(o *Op[N], lg storage.UpdateLogger, pid storage.PageID, n N) error {
	img := k.kinds.Image(n)
	if len(img) > k.room {
		return fmt.Errorf("%w: %s page %d image %dB, room %dB", ErrRecordTooLarge, k.s.Name, pid, len(img), k.room)
	}
	return formatPage(o.s.Store.Pool, &o.Tr, o.Rank(k.sp.Level(n)), lg, pid, n, k.kinds.Format, img)
}
