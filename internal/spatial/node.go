// Package spatial implements a multi-attribute Π-tree over a
// two-dimensional point space, standing in for the hB-tree of §2.2.3
// (see DESIGN.md for the substitution): nodes are responsible for
// rectangular regions described directly rather than with intra-node
// kd-tree fragments, which preserves exactly the behaviours the paper
// uses the hB-tree to motivate —
//
//   - splits by hyperplane on EITHER attribute (§2.2.3, Figure 2);
//   - multiple sibling terms per node ("any node except the root can
//     contain sibling terms to contained nodes", §2.1.1): a node's
//     directly contained region shrinks by halving, each delegated half
//     recorded as a (rectangle, side pointer) sibling term;
//   - CLIPPING (§3.2.2): an index split whose hyperplane cuts through a
//     child's region places the child's term in both parents, marked as
//     multi-parent;
//   - the consolidation constraint of §3.3: a multi-parent (clipped)
//     child must not be consolidated until a single parent references
//     it; the absorber tests the mark under the parent's latch.
//
// Nodes are immortal here (no consolidation is performed — the CNS
// invariant), so traversals hold one latch at a time.
package spatial

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/enc"
	"repro/internal/storage"
)

// MaxCoord is the exclusive upper bound of both coordinates: the search
// space is [0, MaxCoord) x [0, MaxCoord).
const MaxCoord uint64 = 1 << 32

// Point is a location in the two-dimensional key space.
type Point struct {
	X, Y uint64
}

// Less orders points lexicographically (for entry sorting only).
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Rect is the half-open rectangle [X0,X1) x [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 uint64
}

// FullSpace covers every point.
func FullSpace() Rect { return Rect{0, 0, MaxCoord, MaxCoord} }

// Contains reports whether p lies in r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// Intersects reports whether r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// Area returns the rectangle's area (coordinates are bounded by 2^32, so
// the product fits in uint64... only for each side; total area of the
// full space overflows, so Area works on the halved regions actually
// stored and the verifier sums with big arithmetic).
func (r Rect) Area() (hi, lo uint64) {
	w := r.X1 - r.X0
	h := r.Y1 - r.Y0
	// 64x64 -> 128 bit multiply via 32-bit limbs (w, h <= 2^32).
	prod := func(a, b uint64) (uint64, uint64) {
		ahi, alo := a>>32, a&0xFFFFFFFF
		bhi, blo := b>>32, b&0xFFFFFFFF
		ll := alo * blo
		lh := alo * bhi
		hl := ahi * blo
		hh := ahi * bhi
		mid := lh + hl
		carry := uint64(0)
		if mid < lh {
			carry = 1 << 32
		}
		lo := ll + mid<<32
		c2 := uint64(0)
		if lo < ll {
			c2 = 1
		}
		hi := hh + mid>>32 + carry + c2
		return hi, lo
	}
	return prod(w, h)
}

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// SplitX cuts r at x, returning the low and high halves.
func (r Rect) SplitX(x uint64) (Rect, Rect) {
	return Rect{r.X0, r.Y0, x, r.Y1}, Rect{x, r.Y0, r.X1, r.Y1}
}

// SplitY cuts r at y.
func (r Rect) SplitY(y uint64) (Rect, Rect) {
	return Rect{r.X0, r.Y0, r.X1, y}, Rect{r.X0, y, r.X1, r.Y1}
}

// Split cuts r at coord on the X axis (alongX) or the Y axis: kept is the
// low half, off the high one.
func (r Rect) Split(alongX bool, coord uint64) (kept, off Rect) {
	if alongX {
		return r.SplitX(coord)
	}
	return r.SplitY(coord)
}

// String renders the rectangle.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// SibTerm delegates a sub-rectangle to a contained sibling node (§2.1.1).
type SibTerm struct {
	Rect Rect
	Pid  storage.PageID
}

// Entry is a data point (level 0) or an index term (levels >= 1); a record
// on the page holds only its level's fields. An Entry read from a node is a
// view: Value aliases the node's buffer (DESIGN.md §17).
type Entry struct {
	// Data fields.
	P     Point
	Value []byte
	// Index fields: the child is responsible for Rect.
	Rect  Rect
	Child storage.PageID
	// Clipped marks a multi-parent child (§3.3): its term was placed in
	// more than one parent by clipping.
	Clipped bool
}

// Node is one page of the spatial Π-tree.
type Node struct {
	Level int
	// Direct is the directly contained region: the node's original
	// responsibility minus everything delegated through Sibs.
	Direct Rect
	// Sibs are the node's sibling terms, newest last.
	Sibs []SibTerm
	// recs are the entries as the page image stores them: points sorted
	// by (X, Y) in a data node, terms in posting order in an index node;
	// views of them hold under the node's latch until the next mutation.
	recs enc.Records
}

// IsData reports whether the node holds points.
func (n *Node) IsData() bool { return n.Level == 0 }

// Len returns the number of entries.
func (n *Node) Len() int { return n.recs.Len() }

// entry returns entry i as a view; pointAt reads a point's coordinates
// alone and termAt a term's rectangle and child alone.
func (n *Node) entry(i int) Entry { return viewEntry(n.Level, n.recs.At(i)) }

func (n *Node) pointAt(i int) Point {
	rec := n.recs.At(i)
	return Point{X: binary.LittleEndian.Uint64(rec), Y: binary.LittleEndian.Uint64(rec[8:])}
}

func (n *Node) termAt(i int) (Rect, storage.PageID) {
	rec := n.recs.At(i)
	return viewRect(rec), storage.PageID(binary.LittleEndian.Uint64(rec[4*8:]))
}

// setClipped rewrites term i's clipped mark in rs: the record's last byte.
func setClipped(rs *enc.Records, i int, clipped bool) {
	rec := rs.At(i)
	rec[len(rec)-1] = enc.Bit(clipped)
}

// insertAt places a copy of e at position i.
func (n *Node) insertAt(i int, e Entry) {
	var scratch [256]byte
	n.recs.Insert(i, appendEntry(scratch[:0], n.Level, e))
}

// setEntries makes copies of es the node's only entries, in that order.
func (n *Node) setEntries(es ...Entry) {
	n.recs = enc.Records{}
	for i, e := range es {
		n.insertAt(i, e)
	}
}

// routeSib returns the index of the sibling term whose region contains
// p, if any.
func (n *Node) routeSib(p Point) (int, bool) {
	for i := range n.Sibs {
		if n.Sibs[i].Rect.Contains(p) {
			return i, true
		}
	}
	return 0, false
}

// findPoint returns the index of p among the entries.
func (n *Node) findPoint(p Point) (int, bool) {
	i := sort.Search(n.Len(), func(i int) bool {
		return !n.pointAt(i).Less(p)
	})
	if i < n.Len() && n.pointAt(i) == p {
		return i, true
	}
	return i, false
}

// insertPoint places a copy of a data entry in sorted position; false on
// duplicate.
func (n *Node) insertPoint(e Entry) bool {
	i, dup := n.findPoint(e.P)
	if dup {
		return false
	}
	n.insertAt(i, e)
	return true
}

// termFor returns the position of the term referencing child.
func (n *Node) termFor(child storage.PageID) (int, bool) {
	for i := 0; i < n.Len(); i++ {
		if _, c := n.termAt(i); c == child {
			return i, true
		}
	}
	return 0, false
}

// chooseChild picks the index term to descend to for p: the term whose
// rect contains p (approximately contained: lazy posting may leave only
// a containing ancestor's term, whose node's side pointers finish the
// search). Preference goes to the smallest containing rect — the most
// specific child.
func (n *Node) chooseChild(p Point) (storage.PageID, bool) {
	var best Rect
	child := storage.NilPage
	for i := 0; i < n.Len(); i++ {
		r, c := n.termAt(i)
		if r.Contains(p) && (child == storage.NilPage || best.ContainsRect(r)) {
			best, child = r, c
		}
	}
	return child, child != storage.NilPage
}

// clone returns a deep copy.
func (n *Node) clone() *Node {
	c := *n
	c.Sibs = append([]SibTerm(nil), n.Sibs...)
	c.recs = n.recs.Clone()
	return &c
}

// --- serialization ----------------------------------------------------------

// The entry encoders are plain appends, not Writer methods, so that a
// caller's scratch buffer stays on its stack.
func appendRect(dst []byte, r Rect) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.X0)
	dst = binary.LittleEndian.AppendUint64(dst, r.Y0)
	dst = binary.LittleEndian.AppendUint64(dst, r.X1)
	return binary.LittleEndian.AppendUint64(dst, r.Y1)
}

func encodeRect(w *enc.Writer, r Rect) { w.Reset(appendRect(w.Bytes(), r)) }

func decodeRect(r *enc.Reader) Rect {
	return Rect{X0: r.U64(), Y0: r.U64(), X1: r.U64(), Y1: r.U64()}
}

// viewRect reads the rectangle at the head of b.
func viewRect(b []byte) Rect {
	return Rect{
		X0: binary.LittleEndian.Uint64(b), Y0: binary.LittleEndian.Uint64(b[8:]),
		X1: binary.LittleEndian.Uint64(b[16:]), Y1: binary.LittleEndian.Uint64(b[24:]),
	}
}

// A record holds only its level's fields (DESIGN.md §17): a point is its
// coordinates and value, a term its rectangle, child and clipped mark. Each
// level has one layout, one append function and one view, and they are the
// codec of the log payloads that carry one record as well: the insert and
// removal of a point are that point, the posting and removal of a term that
// term.
var (
	pointLayout = enc.Layout{8 + 8, enc.Var}
	termLayout  = enc.Layout{termBytes}
)

func layoutOf(level int) enc.Layout {
	if level == 0 {
		return pointLayout
	}
	return termLayout
}

func appendPoint(dst []byte, e Entry) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.P.X)
	dst = binary.LittleEndian.AppendUint64(dst, e.P.Y)
	return enc.AppendField(dst, e.Value)
}

// viewPoint and viewTerm read a record of their level; Value aliases it.
func viewPoint(rec []byte) Entry {
	e := Entry{P: Point{X: binary.LittleEndian.Uint64(rec), Y: binary.LittleEndian.Uint64(rec[8:])}}
	e.Value, _ = enc.Field(rec, 16)
	return e
}

func appendTerm(dst []byte, e Entry) []byte {
	dst = appendRect(dst, e.Rect)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Child))
	return append(dst, enc.Bit(e.Clipped))
}

func viewTerm(rec []byte) Entry {
	return Entry{Rect: viewRect(rec), Child: storage.PageID(binary.LittleEndian.Uint64(rec[4*8:])), Clipped: rec[4*8+8] != 0}
}

// appendEntry appends e as a record of level; viewEntry reads one.
func appendEntry(dst []byte, level int, e Entry) []byte {
	if level == 0 {
		return appendPoint(dst, e)
	}
	return appendTerm(dst, e)
}

func viewEntry(level int, rec []byte) Entry {
	if level == 0 {
		return viewPoint(rec)
	}
	return viewTerm(rec)
}

// decRecord reads a log payload that is one record of level: its view,
// once the level's layout has checked it. Value aliases b.
func decRecord(level int, b []byte) (Entry, error) {
	if err := layoutOf(level).One(b); err != nil {
		return Entry{}, err
	}
	return viewEntry(level, b), nil
}

// nodeHdrLen is the fixed part of an image: the level, the direct region,
// the sibling-term count and the record count.
const nodeHdrLen = 2 + 4*8 + 4 + 4

// EncodedSize is the length of the node's image, in O(1).
func (n *Node) EncodedSize() int {
	return nodeHdrLen + len(n.Sibs)*sibTermBytes + n.recs.Size()
}

// pointSize and termBytes are the encoded sizes of a point (appendPoint)
// and of a term (appendTerm).
func pointSize(v []byte) int { return 8 + 8 + enc.FieldSize(v) }

const termBytes = 4*8 + 8 + 1

func encodeNode(w *enc.Writer, n *Node) {
	w.U16(uint16(n.Level))
	encodeRect(w, n.Direct)
	w.U32(uint32(len(n.Sibs)))
	for _, s := range n.Sibs {
		encodeRect(w, s.Rect)
		w.U64(uint64(s.Pid))
	}
	encodeEntries(w, &n.recs)
}

// encodeEntries writes a counted list of entries.
func encodeEntries(w *enc.Writer, rs *enc.Records) {
	w.U32(uint32(rs.Len()))
	w.Reset(rs.AppendTo(w.Bytes()))
}

// sibTermBytes is a sibling term's encoded size, which bounds the count a
// decoder accepts by the bytes that are left to hold them.
const sibTermBytes = 4*8 + 8

// decodeNode reads a node whose entries ALIAS r's input: a page image the
// caller hands over, a payload it only reads, or a copy of one
// (pitree.NodeKinds' redo).
func decodeNode(r *enc.Reader) (*Node, error) {
	n := &Node{}
	n.Level = int(r.U16())
	n.Direct = decodeRect(r)
	ns := int(r.U32())
	if r.Err() != nil || ns > r.Remaining()/sibTermBytes {
		return nil, enc.ErrTruncated
	}
	for i := 0; i < ns; i++ {
		s := SibTerm{Rect: decodeRect(r)}
		s.Pid = storage.PageID(r.U64())
		n.Sibs = append(n.Sibs, s)
	}
	n.recs = decodeEntries(r, n.Level)
	return n, r.Err()
}

// decodeEntries reads a counted list of records of level, aliasing r's
// input.
func decodeEntries(r *enc.Reader, level int) enc.Records {
	return r.Records(int(r.U32()), layoutOf(level))
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

// Codec is the storage.Codec for spatial pages.
type Codec struct{}

// AppendPage implements storage.Codec.
func (Codec) AppendPage(dst []byte, v any) ([]byte, error) {
	n, ok := v.(*Node)
	if !ok {
		return nil, fmt.Errorf("spatial: cannot encode page of type %T", v)
	}
	var w enc.Writer
	w.Reset(dst)
	encodeNode(&w, n)
	return w.Bytes(), nil
}

// DecodePage implements storage.Codec: the node keeps b.
func (Codec) DecodePage(b []byte) (any, error) { return decNodeImage(b) }
