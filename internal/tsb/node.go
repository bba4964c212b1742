// Package tsb implements the Time-Split B-tree of Lomet & Salzberg (1989)
// as a Π-tree instance (§2.2.2 of the 1992 paper): a versioned index over
// key × time, maintained with the same decomposed atomic actions, side
// pointers, and lazy index-term posting as the B-link instance in
// internal/core.
//
// Every node is responsible for a rectangle of key × time space. A node
// delegates the high part of its key range to a KEY SIBLING (key split)
// and the old part of its time range to a HISTORY SIBLING (time split):
//
//	"A time split produces a new (historical) node with the original node
//	 directly containing the more recent time. ... A key split produces a
//	 new (current) node ... The new node will contain a copy of the
//	 history sibling pointer. It makes the new current node responsible
//	 for not merely its current key space, but for the entire history of
//	 this key space."
//
// Historical nodes never split again. Version GC retires history nodes
// below the visibility horizon and frees a chain's retired tail, so
// history edges latch-couple (the CP invariant, §5.2.2); no other node is
// ever freed. Index terms carry child rectangles; index-node key splits
// may CLIP a wide historical term into both halves (§3.2.2), which is the
// multi-parent machinery of the paper arising naturally.
package tsb

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/storage"
	"repro/internal/wal"
)

// NoEnd is the open upper time bound of current nodes and live versions.
const NoEnd uint64 = math.MaxUint64

// Rect is a rectangle in key × time space: keys in [KeyLow, KeyHigh),
// times in [TimeLow, TimeHigh). A nil KeyLow is the minimum key; an
// Unbounded KeyHigh and a TimeHigh of NoEnd are the open sides.
type Rect struct {
	KeyLow   keys.Key
	KeyHigh  keys.Bound
	TimeLow  uint64
	TimeHigh uint64
}

// EntireRect covers all keys at all times.
func EntireRect() Rect {
	return Rect{KeyLow: nil, KeyHigh: keys.Inf, TimeLow: 0, TimeHigh: NoEnd}
}

// Contains reports whether the rectangle contains the point (k, t).
func (r Rect) Contains(k keys.Key, t uint64) bool {
	if r.KeyLow != nil && keys.Compare(k, r.KeyLow) < 0 {
		return false
	}
	if !r.KeyHigh.ContainsBelow(k) {
		return false
	}
	return t >= r.TimeLow && t < r.TimeHigh
}

// ContainsKey reports whether k is within the key range.
func (r Rect) ContainsKey(k keys.Key) bool {
	if r.KeyLow != nil && keys.Compare(k, r.KeyLow) < 0 {
		return false
	}
	return r.KeyHigh.ContainsBelow(k)
}

// SpansKey reports whether the rectangle's key range strictly contains
// the boundary k in its interior (the clipping condition).
func (r Rect) SpansKey(k keys.Key) bool {
	if r.KeyLow != nil && keys.Compare(k, r.KeyLow) <= 0 {
		return false
	}
	return r.KeyHigh.ContainsBelow(k) || r.KeyHigh.Unbounded
}

// String renders the rectangle for diagnostics.
func (r Rect) String() string {
	kl := "-inf"
	if r.KeyLow != nil {
		kl = fmt.Sprintf("%x", []byte(r.KeyLow))
	}
	kh := "+inf"
	if !r.KeyHigh.Unbounded {
		kh = fmt.Sprintf("%x", []byte(r.KeyHigh.Key))
	}
	th := "now"
	if r.TimeHigh != NoEnd {
		th = fmt.Sprintf("%d", r.TimeHigh)
	}
	return fmt.Sprintf("[%s,%s)x[%d,%s)", kl, kh, r.TimeLow, th)
}

// Entry is one slot of a TSB node.
//
//   - Data nodes (level 0): a record VERSION — Key, Start (the version's
//     creation time), Value, Deleted (a tombstone version) and Txn. A
//     version is alive from Start until the next version of the same key.
//   - Index nodes (level 1): an index term — Child, ChildRect and Clipped.
//   - Index nodes (level >= 2): a key-only term — Key (low bound), Child.
//
// A record on the page holds only the fields of its node's level. An Entry
// read from a node is a view: its keys and Value alias the node's buffer
// (DESIGN.md §17).
type Entry struct {
	Key     keys.Key
	Start   uint64
	Value   []byte
	Deleted bool
	// Txn is the writing transaction's ID for versions written inside a
	// user transaction; 0 for versions written by atomic actions (which
	// commit under the page latch, so they are atomically visible).
	// Snapshot reads resolve it against the in-flight-at-capture set.
	Txn       wal.TxnID
	Child     storage.PageID
	ChildRect Rect
	// Clipped marks a term installed under clipping: its child may have
	// further parents (§3.3's multi-parent mark).
	Clipped bool
}

// Node is the decoded contents of one TSB page.
type Node struct {
	// Level is 0 for data nodes.
	Level int
	// Rect is the node's DIRECTLY CONTAINED rectangle: KeyHigh and
	// TimeLow move as the node delegates space; KeyLow and TimeHigh are
	// fixed at creation (TimeHigh becomes fixed when a current node is
	// time-split into history).
	Rect Rect
	// KeySib is the side pointer to the node responsible for
	// [KeyHigh, ...) × the node's full history.
	KeySib storage.PageID
	// HistSib is the side pointer to the historical node responsible for
	// the node's key range at times before TimeLow.
	HistSib storage.PageID
	// Retired marks a historical node whose versions were garbage
	// collected: the node's entire time range fell below the visibility
	// horizon. Its entries are cleared; the rectangle and sibling
	// pointers stay so the node remains navigable, and its page is freed
	// once it is an unreferenced chain tail (reclaim.go).
	Retired bool
	// HistShared marks this node's history edge as possibly multi-
	// referenced: a key split copies the history pointer into the new
	// current node ("the new node will contain a copy of the history
	// sibling pointer"), after which two nodes reach the same chain. The
	// mark rides the edge forward — a time split transfers it to the new
	// history node along with the old pointer — and page reclamation
	// (reclaim.go) refuses to free a tail whose incoming edge
	// carries it, since a second referencer may exist.
	HistShared bool
	// recs are the entries as the page image stores them, sorted by
	// (Key, Start) in data nodes, by (KeyLow of rect, TimeLow) in level-1
	// nodes, and by Key in higher index nodes; views of them hold under
	// the node's latch until the next mutation.
	recs enc.Records
}

// IsData reports whether the node is a data node.
func (n *Node) IsData() bool { return n.Level == 0 }

// Current reports whether the node's time range is open-ended.
func (n *Node) Current() bool { return n.Rect.TimeHigh == NoEnd }

// Len returns the number of entries.
func (n *Node) Len() int { return n.recs.Len() }

// entry returns entry i as a view; keyAt (a version's or a key term's),
// startAt (a version's), childAt (a term's) and rectAt (a level-1 term's)
// read one field of it, for the search loops.
func (n *Node) entry(i int) Entry { return viewEntry(n.Level, n.recs.At(i)) }

func (n *Node) keyAt(i int) keys.Key {
	k, _ := enc.Field(n.recs.At(i), 0)
	return k
}

func (n *Node) startAt(i int) uint64 {
	rec := n.recs.At(i)
	_, off := enc.Field(rec, 0)
	return binary.LittleEndian.Uint64(rec[off:])
}

// childAt reads the child at the head of a level-1 term and at the tail of
// a key term.
func (n *Node) childAt(i int) storage.PageID {
	rec := n.recs.At(i)
	if n.Level != 1 {
		rec = rec[len(rec)-8:]
	}
	return storage.PageID(binary.LittleEndian.Uint64(rec))
}

func (n *Node) rectAt(i int) Rect {
	r, _ := viewRect(n.recs.At(i), 8)
	return r
}

// setClipped rewrites term i's clipped mark in rs: the record's last byte.
func setClipped(rs *enc.Records, i int, clipped bool) {
	rec := rs.At(i)
	rec[len(rec)-1] = enc.Bit(clipped)
}

// insertAt places a copy of e at position i.
func (n *Node) insertAt(i int, e Entry) {
	var scratch [320]byte
	n.recs.Insert(i, appendEntry(scratch[:0], n.Level, e))
}

// setEntries makes copies of es the node's only entries, in that order.
func (n *Node) setEntries(es ...Entry) {
	n.recs = enc.Records{}
	for i, e := range es {
		n.insertAt(i, e)
	}
}

// pick returns copies of the entries whose position passes keep.
func (n *Node) pick(keep func(i int) bool) enc.Records {
	var idx []int
	for i := 0; i < n.Len(); i++ {
		if keep(i) {
			idx = append(idx, i)
		}
	}
	return n.recs.Pick(idx)
}

// searchVersion returns the index of the live-at-t version of key, if
// any: the entry with the largest Start <= t among entries of that key.
func (n *Node) searchVersion(k keys.Key, t uint64) (int, bool) {
	// First entry with Key >= k.
	i := sort.Search(n.Len(), func(i int) bool {
		c := keys.Compare(n.keyAt(i), k)
		return c > 0 || (c == 0 && n.startAt(i) > t)
	})
	// The candidate is the previous entry if it is a version of k.
	if i == 0 {
		return 0, false
	}
	if !keys.Equal(n.keyAt(i-1), k) {
		return i - 1, false
	}
	return i - 1, true
}

// versionPos returns the insertion position for (k, start) and whether an
// identical version exists.
func (n *Node) versionPos(k keys.Key, start uint64) (int, bool) {
	i := sort.Search(n.Len(), func(i int) bool {
		c := keys.Compare(n.keyAt(i), k)
		return c > 0 || (c == 0 && n.startAt(i) >= start)
	})
	if i < n.Len() && keys.Equal(n.keyAt(i), k) && n.startAt(i) == start {
		return i, true
	}
	return i, false
}

// insertVersion places a copy of the version at its sorted position; it
// reports false if an identical (key, start) version already exists.
func (n *Node) insertVersion(e Entry) bool {
	i, dup := n.versionPos(e.Key, e.Start)
	if dup {
		return false
	}
	n.insertAt(i, e)
	return true
}

// removeVersion deletes the exact (key, start) version.
func (n *Node) removeVersion(k keys.Key, start uint64) bool {
	i, ok := n.versionPos(k, start)
	if ok {
		n.recs.Delete(i)
	}
	return ok
}

// termFor returns the position of the term for child, if there is one.
func (n *Node) termFor(child storage.PageID) (int, bool) {
	for i := 0; i < n.Len(); i++ {
		if n.childAt(i) == child {
			return i, true
		}
	}
	return 0, false
}

// insertTerm places a copy of a level-1 rect-term sorted by (KeyLow, TimeLow).
func (n *Node) insertTerm(e Entry) {
	i := sort.Search(n.Len(), func(i int) bool {
		r := n.rectAt(i)
		c := keys.Compare(r.KeyLow, e.ChildRect.KeyLow)
		return c > 0 || (c == 0 && r.TimeLow >= e.ChildRect.TimeLow)
	})
	n.insertAt(i, e)
}

// chooseTerm picks the level-1 term to descend to for the point (k, t).
// Because posting is lazy, the containing term may be absent; the chosen
// child then only APPROXIMATELY contains the point and the data-level
// side pointers (key sibling, history sibling) finish the job. Priority:
//
//  1. a key-covering term with the largest TimeLow <= t (exact or the
//     closest newer-than-t start, since the child's history chain reaches
//     older times);
//  2. a key-covering term with the smallest TimeLow (t predates every
//     posted term: descend to the oldest and chase history siblings);
//  3. the term with the largest KeyLow <= k, most current first (key
//     sibling traversal will move right).
//
// ok is false only when no entry has KeyLow <= k, which a well-formed
// node never exhibits for points in its directly contained space.
func (n *Node) chooseTerm(k keys.Key, t uint64) (Entry, bool) {
	// containing: rect contains (k,t) exactly — prefer the largest
	// KeyLow (closest key group), then the largest TimeLow (tightest
	// time). current: rect covers k with an open time end — always a
	// safe landing (its history chain reaches all older times),
	// preferred with the largest KeyLow (closest current node). belowKey:
	// last resort when no rect covers k (only lower key groups posted):
	// prefer open-ended time so the landing has key siblings to follow.
	//
	// Terms are sorted by (KeyLow, TimeLow) with nil KeyLow first
	// (insertTerm; Verify asserts it), so the candidates — every term
	// with KeyLow <= k — are exactly the prefix [0, hi), and iterating
	// it BACKWARD enumerates them in preference order: largest KeyLow
	// first, largest TimeLow within a key group. The first containing
	// term found is therefore the most specific one, which makes the
	// common current-time lookup a binary search plus a handful of
	// entries instead of a full scan of a node that soft overflow may
	// have grown far past its nominal capacity.
	hi := sort.Search(n.Len(), func(i int) bool {
		return keys.Compare(n.rectAt(i).KeyLow, k) > 0
	})
	current, belowKey := -1, -1
	belowOpen := false // the belowKey term's time range is open-ended
	for j := hi - 1; j >= 0; j-- {
		r := n.rectAt(j)
		if belowKey == -1 || (r.TimeHigh == NoEnd && !belowOpen) {
			belowKey, belowOpen = j, r.TimeHigh == NoEnd
		}
		if !r.ContainsKey(k) {
			continue
		}
		if r.Contains(k, t) {
			return n.entry(j), true
		}
		if r.TimeHigh == NoEnd && current == -1 {
			current = j
		}
	}
	switch {
	case current >= 0:
		return n.entry(current), true
	case belowKey >= 0:
		return n.entry(belowKey), true
	}
	return Entry{}, false
}

// keyChildFor is the level->=2 lookup: largest entry Key <= k.
func (n *Node) keyChildFor(k keys.Key) (Entry, bool) {
	i := sort.Search(n.Len(), func(i int) bool {
		return keys.Compare(n.keyAt(i), k) > 0
	})
	if i == 0 {
		return Entry{}, false
	}
	return n.entry(i - 1), true
}

// insertKeyTerm places a copy of a key-only term (level >= 2).
func (n *Node) insertKeyTerm(e Entry) bool {
	i := n.firstKeyAtOrAbove(e.Key)
	if i < n.Len() && keys.Equal(n.keyAt(i), e.Key) {
		return false
	}
	n.insertAt(i, e)
	return true
}

// clone returns a deep copy.
func (n *Node) clone() *Node {
	c := *n
	c.Rect = cloneRect(n.Rect)
	c.recs = n.recs.Clone()
	return &c
}

func cloneRect(r Rect) Rect {
	r.KeyLow = keys.Clone(r.KeyLow)
	r.KeyHigh.Key = keys.Clone(r.KeyHigh.Key)
	return r
}

// --- serialization --------------------------------------------------------

// The encoders are plain appends, not Writer methods, so that a caller's
// scratch buffer stays on its stack.
func appendRect(dst []byte, r Rect) []byte {
	dst = enc.AppendField(dst, r.KeyLow)
	dst = append(dst, enc.Bit(r.KeyHigh.Unbounded))
	dst = enc.AppendField(dst, r.KeyHigh.Key)
	dst = binary.LittleEndian.AppendUint64(dst, r.TimeLow)
	return binary.LittleEndian.AppendUint64(dst, r.TimeHigh)
}

func encodeRect(w *enc.Writer, r Rect) { w.Reset(appendRect(w.Bytes(), r)) }

func decodeRect(r *enc.Reader) Rect {
	var out Rect
	out.KeyLow = r.Field()
	out.KeyHigh.Unbounded = r.Bool()
	out.KeyHigh.Key = r.Field()
	out.TimeLow = r.U64()
	out.TimeHigh = r.U64()
	return out
}

// viewRect reads the rectangle at rec[off:], its keys aliasing rec.
func viewRect(rec []byte, off int) (Rect, int) {
	var r Rect
	r.KeyLow, off = enc.Field(rec, off)
	r.KeyHigh.Unbounded = rec[off] != 0
	r.KeyHigh.Key, off = enc.Field(rec, off+1)
	r.TimeLow = binary.LittleEndian.Uint64(rec[off:])
	r.TimeHigh = binary.LittleEndian.Uint64(rec[off+8:])
	return r, off + 16
}

// A record holds only its level's fields (DESIGN.md §17): a version is
// its key, start, value, tombstone mark and writer; a level-1 term its
// child, the child's rectangle (key low, unbounded, key high, the times)
// and the clipped mark; a key term its key and child. Each level has one
// layout, one append function and one view, and they are the codec of the
// log payloads that carry one record as well: the posting and removal of a
// term are that term. (A put logs its version in a form of its own,
// appendPut.)
var (
	versionLayout = enc.Layout{enc.Var, 8, enc.Var, 1 + 8}
	termLayout    = enc.Layout{8, enc.Var, 1, enc.Var, 8 + 8, 1}
	keyTermLayout = enc.Layout{enc.Var, 8}
)

func layoutOf(level int) enc.Layout {
	switch level {
	case 0:
		return versionLayout
	case 1:
		return termLayout
	}
	return keyTermLayout
}

func appendVersion(dst []byte, e Entry) []byte {
	dst = enc.AppendField(dst, e.Key)
	dst = binary.LittleEndian.AppendUint64(dst, e.Start)
	dst = enc.AppendField(dst, e.Value)
	dst = append(dst, enc.Bit(e.Deleted))
	return binary.LittleEndian.AppendUint64(dst, uint64(e.Txn))
}

// viewVersion, viewTerm and viewKeyTerm read a record of their level; keys
// and Value alias it.
func viewVersion(rec []byte) Entry {
	var e Entry
	var off int
	e.Key, off = enc.Field(rec, 0)
	e.Start = binary.LittleEndian.Uint64(rec[off:])
	e.Value, off = enc.Field(rec, off+8)
	e.Deleted = rec[off] != 0
	e.Txn = wal.TxnID(binary.LittleEndian.Uint64(rec[off+1:]))
	return e
}

func appendTerm(dst []byte, e Entry) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Child))
	dst = appendRect(dst, e.ChildRect)
	return append(dst, enc.Bit(e.Clipped))
}

func viewTerm(rec []byte) Entry {
	e := Entry{Child: storage.PageID(binary.LittleEndian.Uint64(rec))}
	var off int
	e.ChildRect, off = viewRect(rec, 8)
	e.Clipped = rec[off] != 0
	return e
}

func appendKeyTerm(dst []byte, k keys.Key, child storage.PageID) []byte {
	return binary.LittleEndian.AppendUint64(enc.AppendField(dst, k), uint64(child))
}

func viewKeyTerm(rec []byte) Entry {
	k, off := enc.Field(rec, 0)
	return Entry{Key: k, Child: storage.PageID(binary.LittleEndian.Uint64(rec[off:]))}
}

// appendEntry appends e as a record of level; viewEntry reads one.
func appendEntry(dst []byte, level int, e Entry) []byte {
	switch level {
	case 0:
		return appendVersion(dst, e)
	case 1:
		return appendTerm(dst, e)
	}
	return appendKeyTerm(dst, e.Key, e.Child)
}

func viewEntry(level int, rec []byte) Entry {
	switch level {
	case 0:
		return viewVersion(rec)
	case 1:
		return viewTerm(rec)
	}
	return viewKeyTerm(rec)
}

// decRecord reads a log payload that is one record of level: its view,
// once the level's layout has checked it. The fields alias b.
func decRecord(level int, b []byte) (Entry, error) {
	if err := layoutOf(level).One(b); err != nil {
		return Entry{}, err
	}
	return viewEntry(level, b), nil
}

// encodeHeader serializes everything of a node but its entries: what a
// structure change can overwrite besides them, and so what its log record
// carries of the node's previous state.
func encodeHeader(w *enc.Writer, n *Node) {
	w.U16(uint16(n.Level))
	encodeRect(w, n.Rect)
	w.U64(uint64(n.KeySib))
	w.U64(uint64(n.HistSib))
	w.Bool(n.Retired)
	w.Bool(n.HistShared)
}

func decodeHeader(r *enc.Reader) *Node {
	n := &Node{}
	n.Level = int(r.U16())
	n.Rect = decodeRect(r)
	n.KeySib = storage.PageID(r.U64())
	n.HistSib = storage.PageID(r.U64())
	n.Retired = r.Bool()
	n.HistShared = r.Bool()
	return n
}

// setHeader overwrites n's header with hdr's; the entries stay.
func (n *Node) setHeader(hdr *Node) {
	recs := n.recs
	*n = *hdr
	n.recs = recs
}

// nodeHdrLen is the fixed part of an image's header: encodeHeader's level,
// the fixed part of its rectangle, sibling pointers and marks, and the
// record count.
const nodeHdrLen = 2 + rectLen + 8 + 8 + 1 + 1 + 4

// rectLen is the fixed part of an encoded rectangle: the unbounded mark
// and the times; the keys are fields beside it (rectSize).
const rectLen = 1 + 8 + 8

func rectSize(r Rect) int { return rectLen + enc.FieldSize(r.KeyLow) + enc.FieldSize(r.KeyHigh.Key) }

// EncodedSize is the length of the node's image, in O(1).
func (n *Node) EncodedSize() int {
	return nodeHdrLen + enc.FieldSize(n.Rect.KeyLow) + enc.FieldSize(n.Rect.KeyHigh.Key) + n.recs.Size()
}

// versionSize, termSize and keyTermSize are the encoded sizes of a version
// (appendVersion), a level-1 term (appendTerm) and a key term
// (appendKeyTerm).
func versionSize(k keys.Key, v []byte) int { return enc.FieldSize(k) + 8 + enc.FieldSize(v) + 1 + 8 }

func termSize(r Rect) int { return 8 + rectSize(r) + 1 }

func keyTermSize(k keys.Key) int { return enc.FieldSize(k) + 8 }

func encodeNode(w *enc.Writer, n *Node) {
	encodeHeader(w, n)
	w.U32(uint32(n.Len()))
	w.Reset(n.recs.AppendTo(w.Bytes()))
}

// decodeNode reads a node whose entries ALIAS r's input: a page image the
// caller hands over, a payload it only reads, or a copy of one
// (pitree.NodeKinds' redo). The header's keys are copied: they must not pin a
// buffer the entries have outgrown.
func decodeNode(r *enc.Reader) (*Node, error) {
	n := decodeHeader(r)
	n.recs = r.Records(int(r.U32()), layoutOf(n.Level))
	return n, r.Err()
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

// Codec is the storage.Codec for TSB pages.
type Codec struct{}

// AppendPage implements storage.Codec.
func (Codec) AppendPage(dst []byte, v any) ([]byte, error) {
	n, ok := v.(*Node)
	if !ok {
		return nil, fmt.Errorf("tsb: cannot encode page of type %T", v)
	}
	var w enc.Writer
	w.Reset(dst)
	encodeNode(&w, n)
	return w.Bytes(), nil
}

// DecodePage implements storage.Codec: the node keeps b.
func (Codec) DecodePage(b []byte) (any, error) { return decNodeImage(b) }

// SuccessorHint implements storage.SuccessorCodec: a data node's
// key-order successor is its key sibling, the pointer a key-ordered
// scan at any time slice follows next, unless the node covers the scan's
// end (its key high bound is at or past end), where a scan to end stops.
// Index nodes and retired pages return no hint.
func (Codec) SuccessorHint(data any, end []byte) storage.PageID {
	n, ok := data.(*Node)
	if !ok || !n.IsData() || n.Retired || end != nil && !n.Rect.KeyHigh.LessHigh(keys.Bound{Key: end}) {
		return storage.NilPage
	}
	return n.KeySib
}
