package tsb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

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
	// KindRestoreImage replaces a node with a stored pre-image; only ever a
	// CLR, the compensation for KindRootGrow, which keeps an image.
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
	// node is marked Retired; the page is freed later, once the node is
	// its chain's tail (KindCutHist). The payload's flag, when set, also
	// clears the history side pointer: the writer always logs it clear, and
	// redo still honours a set one, which older logs of this format carry.
	// Redo-only: the versions it destroys are below the visibility horizon
	// and are not logged, so a retire that is rolled back — it is the last
	// record of its action — leaves the node retired, under index terms
	// the rollback restored (a term to a retired node routes to a
	// well-formed empty page).
	KindRetireNode wal.Kind = 52
	// KindCutHist unlinks a fully-retired history-chain tail from its sole
	// referencer so the tail's page can be freed and recycled (every
	// version-GC pass reaps): the logged node drops its history pointer
	// and its shared-edge mark. The tail's de-allocation is meta-logged by the
	// store's free record inside the same atomic action; undo restores the
	// logged header (and the meta undo un-frees the page).
	KindCutHist wal.Kind = 53
	// KindUnsplit is the compensation for the split kinds and KindCutHist,
	// only ever a CLR: it restores the node's header — side pointers,
	// bounds, marks — to the logged one, re-adds the entries that left, and
	// clears the clipped marks the split set.
	KindUnsplit wal.Kind = 54
	// KindPrune drops from a current data node the versions a later
	// version of their key starting below the payload's horizon supersedes
	// (applyTimeSplit's alive-at-ts test at ts = the horizon), touching no
	// header field. Redo-only, like KindRetireNode: no reader can see a
	// dropped version (DESIGN.md §21), so a rolled-back prune — its
	// action's only record — leaves the node pruned.
	KindPrune wal.Kind = 55
)

// --- payload codecs --------------------------------------------------------

// A split record carries the cut, the new sibling and the node's header as
// it was: what left the node is in the sibling's format record, logged just
// before (undo reads it there), and everything else a split overwrites is
// header.

func encTimeSplit(ts uint64, hist storage.PageID, old *Node) []byte {
	var w enc.Writer
	w.U64(ts)
	w.U64(uint64(hist))
	encodeHeader(&w, old)
	return w.Bytes()
}

func decTimeSplit(b []byte) (ts uint64, hist storage.PageID, old *Node, err error) {
	r := enc.NewReader(b)
	ts = r.U64()
	hist = storage.PageID(r.U64())
	old = decodeHeader(r)
	return ts, hist, old, r.Err()
}

// A key split of an index node also lists the children whose terms it
// marked clipped (a data node's list is empty).
func encKeySplit(k keys.Key, sib storage.PageID, old *Node, clipped []storage.PageID) []byte {
	var w enc.Writer
	w.Field(k)
	w.U64(uint64(sib))
	encodeHeader(&w, old)
	encodePIDs(&w, clipped)
	return w.Bytes()
}

func decKeySplit(b []byte) (k keys.Key, sib storage.PageID, old *Node, clipped []storage.PageID, err error) {
	r := enc.NewReader(b)
	k = r.Field()
	sib = storage.PageID(r.U64())
	old = decodeHeader(r)
	clipped, err = decodePIDs(r)
	return k, sib, old, clipped, err
}

func encodePIDs(w *enc.Writer, pids []storage.PageID) {
	w.U32(uint32(len(pids)))
	for _, pid := range pids {
		w.U64(uint64(pid))
	}
}

func decodePIDs(r *enc.Reader) ([]storage.PageID, error) {
	n := int(r.U32())
	if r.Err() != nil || n > r.Remaining()/8 {
		return nil, enc.ErrTruncated
	}
	var pids []storage.PageID
	for i := 0; i < n; i++ {
		pids = append(pids, storage.PageID(r.U64()))
	}
	return pids, nil
}

// unsplit payload: the header to restore with the entries to re-add (a
// node image holding just those), then the children to un-clip.
func encUnsplit(old *Node, readd enc.Records, unclip []storage.PageID) []byte {
	var w enc.Writer
	img := *old
	img.recs = readd
	encodeNode(&w, &img)
	encodePIDs(&w, unclip)
	return w.Bytes()
}

func decUnsplit(b []byte) (img *Node, unclip []storage.PageID, err error) {
	r := enc.NewReader(b)
	if img, err = decodeNode(r); err != nil {
		return nil, nil, err
	}
	unclip, err = decodePIDs(r)
	return img, unclip, err
}

// applyUnsplit is the redo of KindUnsplit. The entries are records of the
// node's level, which the header must not change.
func applyUnsplit(n, img *Node, unclip []storage.PageID) error {
	if img.Level != n.Level {
		return fmt.Errorf("tsb: unsplit of a level-%d node to level %d", n.Level, img.Level)
	}
	n.setHeader(img)
	for i := 0; i < img.Len(); i++ {
		e := img.entry(i)
		switch n.Level {
		case 0:
			n.insertVersion(e)
		case 1:
			n.insertTerm(e)
		default:
			n.insertKeyTerm(e)
		}
	}
	for _, child := range unclip {
		if i, ok := n.termFor(child); ok {
			setClipped(&n.recs, i, false)
		}
	}
	return nil
}

// A put's payload names its version by how it differs from the version of
// its key it supersedes, which sits in the same data node (DESIGN.md §16):
//
//	flags     putDeleted | putDelta | putOwnTxn
//	key       uvarint length, then the key
//	start     uvarint
//	txn       uvarint writer, left out under putOwnTxn: the writer is the
//	          record's own transaction
//	literal:  uvarint value length, then the value
//	delta:    uvarint start − the predecessor's start, then the enc.Delta
//	          that turns the predecessor's value into this one
//
// The delta form is used where the leaf holds a version of the key, the
// new version is no tombstone and the delta comes out shorter than the
// literal: a delta keeps the tail of a value that shrinks, which a put's
// never inverted delta does not need. The literal form is used for a key's
// first version in the node, for tombstones, for the rollback's re-carry
// CLR, which re-inserts an older version, and for a value that shrank far
// or follows a tombstone. Redo applies a delta to the exact
// version it names, which the pageLSN rule guarantees is there: every
// record of the page up to this one has been applied, and none after.
const (
	putDeleted byte = 1 << iota
	putDelta
	putOwnTxn
	putFlags = putDeleted | putDelta | putOwnTxn
)

// putPayload is a decoded put: the version, its value in the literal form
// only, and in the delta form how far back its predecessor starts (back,
// never 0) and the delta from the predecessor's value.
type putPayload struct {
	Entry
	back  uint64
	delta enc.Delta
}

// appendPut appends the payload of a put of e. pred is the newest version
// of e.Key the node held before e, or nil. recTxn is the transaction the
// record is logged under, or 0 where that is not known; a writer equal to
// it is left to the record header.
func appendPut(dst []byte, e Entry, recTxn wal.TxnID, pred *Entry) []byte {
	flags := byte(0)
	if e.Deleted {
		flags |= putDeleted
	}
	own := e.Txn != 0 && e.Txn == recTxn
	if own {
		flags |= putOwnTxn
	}
	at := len(dst)
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(e.Key)))
	dst = append(dst, e.Key...)
	dst = binary.AppendUvarint(dst, e.Start)
	if !own {
		dst = binary.AppendUvarint(dst, uint64(e.Txn))
	}
	if pred != nil && !e.Deleted && pred.Start < e.Start {
		head := len(dst)
		dst = enc.AppendXOR(binary.AppendUvarint(dst, e.Start-pred.Start), pred.Value, e.Value)
		if len(dst)-head < literalSize(len(e.Value)) {
			dst[at] |= putDelta
			return dst
		}
		dst = dst[:head]
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.Value)))
	return append(dst, e.Value...)
}

// literalSize is the length of the literal form of an n-byte value.
func literalSize(n int) int { return 1 + (bits.Len64(uint64(n)|1)-1)/7 + n }

// errBadPut reports a put payload appendPut would not write.
var errBadPut = errors.New("tsb: malformed put payload")

// decPut decodes a put logged under recTxn. It accepts only what appendPut
// writes — known flags, no delta for a tombstone, minimal uvarints, an
// explicit writer only where it is not recTxn, a tombstone without a value,
// nothing left over, and a delta enc.DecodeDelta accepts that is shorter
// than its value's literal — so a payload it accepts re-encodes to the same
// bytes. The key and the value alias b;
// an empty key or value decodes as nil, which is how the writer stores one.
func decPut(b []byte, recTxn wal.TxnID) (putPayload, error) {
	var p putPayload
	if len(b) == 0 || b[0]&^putFlags != 0 || b[0]&(putDeleted|putDelta) == putDeleted|putDelta {
		return p, fmt.Errorf("%w: %x", errBadPut, b)
	}
	flags, q := b[0], b[1:]
	p.Deleted = flags&putDeleted != 0
	klen, q, ok := enc.MinUvarint(q, math.MaxUint64)
	if ok = ok && klen <= uint64(len(q)); ok {
		p.Key, q = enc.NilIfEmpty(q[:klen]), q[klen:]
		p.Start, q, ok = enc.MinUvarint(q, math.MaxUint64)
	}
	if ok && flags&putOwnTxn != 0 {
		p.Txn, ok = recTxn, recTxn != 0
	} else if ok {
		var txn uint64
		txn, q, ok = enc.MinUvarint(q, math.MaxUint64)
		p.Txn = wal.TxnID(txn)
		ok = ok && (txn == 0 || p.Txn != recTxn)
	}
	if !ok {
		return putPayload{}, fmt.Errorf("%w: %x", errBadPut, b)
	}
	if flags&putDelta != 0 {
		tail := len(q)
		if p.back, q, ok = enc.MinUvarint(q, p.Start); !ok || p.back == 0 {
			return putPayload{}, fmt.Errorf("%w: %x", errBadPut, b)
		}
		var err error
		if p.delta, err = enc.DecodeDelta(q, pitree.MaxRecord); err != nil {
			return putPayload{}, err
		}
		if tail >= literalSize(p.delta.To) {
			return putPayload{}, fmt.Errorf("%w: a delta no shorter than its literal: %x", errBadPut, b)
		}
		return p, nil
	}
	vlen, q, ok := enc.MinUvarint(q, math.MaxUint64)
	if !ok || vlen != uint64(len(q)) || (p.Deleted && vlen > 0) {
		return putPayload{}, fmt.Errorf("%w: %x", errBadPut, b)
	}
	p.Value = enc.NilIfEmpty(q)
	return p, nil
}

// version returns the version p puts into n: its literal, or its delta
// applied to the predecessor it names, which must be in n (an error, never
// a wrong value, when it is not). A delta's value is built in scratch.
func (p putPayload) version(n *Node, scratch []byte) (Entry, error) {
	if p.back == 0 {
		return p.Entry, nil
	}
	i, ok := n.versionPos(p.Key, p.Start-p.back)
	if !ok {
		return Entry{}, fmt.Errorf("%w: key %x at %d: no version at %d to apply its delta to", errBadPut, p.Key, p.Start, p.Start-p.back)
	}
	v, err := p.delta.Apply(scratch, n.entry(i).Value)
	if err != nil {
		return Entry{}, fmt.Errorf("tsb: put of key %x at %d: %w", p.Key, p.Start, err)
	}
	e := p.Entry
	e.Value = enc.NilIfEmpty(v)
	return e, nil
}

// IsPutDelta reports whether a KindPut payload carries its value as a delta
// from its predecessor's; pitree-verify -logstat counts the two forms.
func IsPutDelta(payload []byte) bool { return len(payload) > 0 && payload[0]&putDelta != 0 }

func encVersionRef(k keys.Key, start uint64) []byte {
	var w enc.Writer
	w.Field(k)
	w.U64(start)
	return w.Bytes()
}

func decVersionRef(b []byte) (keys.Key, uint64, error) {
	r := enc.NewReader(b)
	k := r.Field()
	s := r.U64()
	return k, s, r.Err()
}

// encRetire is the retire payload: its unlink flag, always logged clear.
func encRetire() []byte { return []byte{enc.Bit(false)} }

func decRetire(b []byte) (unlink bool, err error) {
	r := enc.NewReader(b)
	unlink = r.Bool()
	return unlink, r.Err()
}

// applyRetire garbage-collects a historical node in place: versions go,
// the rectangle and sibling pointers stay so stale traversals still
// navigate through it. unlink, which only a replayed record can carry,
// additionally drops the history pointer.
func applyRetire(n *Node, unlink bool) {
	n.recs = enc.Records{}
	n.Retired = true
	if unlink {
		n.HistSib = storage.NilPage
	}
}

// encPrune is the prune payload: the visibility horizon it pruned at.
func encPrune(horizon uint64) []byte {
	var w enc.Writer
	w.U64(horizon)
	return w.Bytes()
}

func decPrune(b []byte) (uint64, error) {
	r := enc.NewReader(b)
	return r.U64(), r.Err()
}

// cutHist payload: the node's header as it was.
func encCutHist(old *Node) []byte {
	var w enc.Writer
	encodeHeader(&w, old)
	return w.Bytes()
}

// applyCutHist drops a node's history edge: the tail behind it is about
// to be (or was, on redo) de-allocated. The edge mark goes with the edge.
func applyCutHist(n *Node) {
	n.HistSib = storage.NilPage
	n.HistShared = false
}

// nodeKinds is the kernel's description of the tree's node images. A grown
// root is a current index node over all keys and times, with two key terms.
var nodeKinds = pitree.NodeKinds[*Node]{
	Format: KindFormat, Restore: KindRestoreImage, Grow: KindRootGrow,
	Image: encNodeImage, Decode: decNodeImage, Layout: keyTermLayout,
	Splits: []pitree.Cut[*Node]{&splitCut{kind: KindTimeSplit}, &splitCut{kind: KindKeySplit}, &splitCut{kind: KindIndexKeySplit}},
	Term: func(dst []byte, n *Node, pid storage.PageID) []byte {
		return appendKeyTerm(dst, n.Rect.KeyLow, pid)
	},
	Raise: func(n *Node, terms enc.Records) {
		n.Level++
		n.recs = terms.Clone()
		n.Rect = EntireRect()
		n.KeySib = storage.NilPage
		n.HistSib = storage.NilPage
	},
}

// --- semantic helpers shared by runtime application and redo ----------------

// applyTimeSplit keeps, in the current node, every version alive at ts
// (the latest version of each key with Start < ts stays, copied semantics)
// plus every version with Start >= ts, then advances TimeLow and installs
// the history sibling. The old history edge — pointer AND shared mark —
// moved to the new history node (splitCut builds its image that way), so
// the current node's new edge to it is fresh and single-referenced.
func applyTimeSplit(n *Node, ts uint64, hist storage.PageID) {
	n.recs = n.pick(func(i int) bool { return aliveAt(n, i, ts) })
	n.Rect.TimeLow = ts
	n.HistSib = hist
	n.HistShared = false
}

// aliveAt reports whether the version at i of a data node starts at or
// after ts or is alive at ts. Below ts a version is alive iff no later
// version of the same key has Start < ts, i.e. it is the last version of
// its key below ts. Entries are sorted by (Key, Start).
func aliveAt(n *Node, i int, ts uint64) bool {
	return n.startAt(i) >= ts || i+1 >= n.Len() ||
		!keys.Equal(n.keyAt(i+1), n.keyAt(i)) || n.startAt(i+1) >= ts
}

// prunable counts the versions of a data node a prune at horizon drops.
func prunable(n *Node, horizon uint64) (dead int) {
	for i := 0; i < n.Len(); i++ {
		if !aliveAt(n, i, horizon) {
			dead++
		}
	}
	return dead
}

// applyPrune keeps the versions alive at horizon and every later one, the
// header as it is, and returns how many it dropped.
func applyPrune(n *Node, horizon uint64) int {
	before := n.Len()
	n.recs = n.pick(func(i int) bool { return aliveAt(n, i, horizon) })
	return before - n.Len()
}

// historyContents returns the versions the new history node receives:
// every version with Start < ts.
func historyContents(n *Node, ts uint64) enc.Records {
	return n.pick(func(i int) bool { return n.startAt(i) < ts })
}

// timeSplitLeavers returns, of a history node's image, the versions a time
// split REMOVED from the current node: all but the last version of each key
// (that one was alive at the split time and stayed, copied).
func timeSplitLeavers(hist *Node) enc.Records {
	return hist.pick(func(i int) bool { return i+1 < hist.Len() && keys.Equal(hist.keyAt(i+1), hist.keyAt(i)) })
}

// firstKeyAtOrAbove returns the position of the first entry of a data node,
// or of an index node above level 1, whose key is not below k: where a key
// split at k cuts the sorted entries.
func (n *Node) firstKeyAtOrAbove(k keys.Key) int {
	return sort.Search(n.Len(), func(i int) bool { return keys.Compare(n.keyAt(i), k) >= 0 })
}

// applyKeySplit trims a data node to keys below k. The new sibling copies
// the history pointer, so if one exists the edge is now reached from two
// current nodes: mark it shared on this side (the sibling's image carries
// its own mark) so reclamation never frees the chain's tail out from
// under the other referencer.
func applyKeySplit(n *Node, k keys.Key, sib storage.PageID) {
	n.recs = n.recs.Slice(0, n.firstKeyAtOrAbove(k))
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
	if n.Level == 1 {
		var kept, spanning []int
		for i := 0; i < n.Len(); i++ {
			if r := n.rectAt(i); keys.Compare(r.KeyLow, k) < 0 {
				if r.SpansKey(k) {
					spanning = append(spanning, len(kept))
				}
				kept = append(kept, i)
			}
		}
		n.recs = n.recs.Pick(kept)
		for _, i := range spanning {
			setClipped(&n.recs, i, true)
		}
	} else {
		n.recs = n.recs.Slice(0, n.firstKeyAtOrAbove(k))
	}
	n.Rect.KeyHigh = keys.At(k)
	n.KeySib = sib
}

// newlyClipped returns the children whose terms an index key split of n at
// k marks Clipped: those spanning k and not clipped before.
func newlyClipped(n *Node, k keys.Key) []storage.PageID {
	var out []storage.PageID
	if n.Level != 1 {
		return nil
	}
	for i := 0; i < n.Len(); i++ {
		if e := n.entry(i); !e.Clipped && keys.Compare(e.ChildRect.KeyLow, k) < 0 && e.ChildRect.SpansKey(k) {
			out = append(out, e.Child)
		}
	}
	return out
}

// indexSplitLeavers returns, of an index sibling's image, the terms the
// key split at k REMOVED from the node: all of them but the clipped copies
// of level-1 terms spanning k, which stayed as well.
func indexSplitLeavers(sib *Node, k keys.Key) enc.Records {
	if sib.Level != 1 {
		return sib.recs
	}
	return sib.pick(func(i int) bool { return keys.Compare(sib.rectAt(i).KeyLow, k) >= 0 })
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

	nodeKinds.Register(reg)
	reg.Register(KindUnsplit, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			img, unclip, err := decUnsplit(rec.Payload)
			if err != nil {
				return err
			}
			return applyUnsplit(n, img, unclip)
		}),
	})
	reg.Register(KindPut, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			p, err := decPut(rec.Payload, rec.TxnID)
			if err != nil {
				return err
			}
			var scratch [256]byte
			e, err := p.version(n, scratch[:0])
			if err != nil {
				return err
			}
			n.insertVersion(e)
			return nil
		}),
		// The undo removes the version by its key and start; the value, or
		// the delta that makes it, is not read.
		LogicalUndo: pitree.LogicalUndo(b, func(t *Tree, rec *wal.Record) (*pitree.Kernel[*Node, point], pitree.Undoer[*Node, point], error) {
			p, err := decPut(rec.Payload, rec.TxnID)
			return t.kern, &undoPut{t: t, e: Entry{Key: p.Key, Start: p.Start}, txn: rec.TxnID, at: []uint64{NoEnd - 1}}, err
		}),
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
			e, err := decRecord(1, rec.Payload)
			if err != nil {
				return err
			}
			if _, dup := n.termFor(e.Child); !dup {
				n.insertTerm(e)
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
	reg.Register(KindPostKeyTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decRecord(2, rec.Payload)
			if err != nil {
				return err
			}
			n.insertKeyTerm(e)
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindRemoveKeyTerm, Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindRemoveKeyTerm, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			e, err := decRecord(2, rec.Payload)
			if err != nil {
				return err
			}
			if i := n.firstKeyAtOrAbove(e.Key); i < n.Len() && keys.Equal(n.keyAt(i), e.Key) {
				n.recs.Delete(i)
			}
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			return storage.Compensation{Kind: KindPostKeyTerm, Payload: rec.Payload}, nil
		},
	})
	reg.Register(KindRetireNode, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			unlink, err := decRetire(rec.Payload)
			if err != nil {
				return err
			}
			applyRetire(n, unlink)
			return nil
		}),
		// Redo-only; see KindRetireNode.
	})
	reg.Register(KindPrune, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			horizon, err := decPrune(rec.Payload)
			if err == nil {
				applyPrune(n, horizon)
			}
			return err
		}),
		// Redo-only; see KindPrune.
	})
	reg.Register(KindCutHist, storage.Handler{
		Redo: pitree.RedoNode(func(n *Node, rec *wal.Record) error {
			applyCutHist(n)
			return nil
		}),
		MakeUndo: func(rec *wal.Record, _ storage.LogReader) (storage.Compensation, error) {
			r := enc.NewReader(rec.Payload)
			old := decodeHeader(r)
			if r.Err() != nil {
				return storage.Compensation{}, r.Err()
			}
			return storage.Compensation{Kind: KindUnsplit, Payload: encUnsplit(old, enc.Records{}, nil)}, nil
		},
	})
	return b
}
