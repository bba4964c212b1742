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
//     it; CanConsolidate exposes the test.
//
// Nodes are immortal here (no consolidation is performed — the CNS
// invariant), so traversals hold one latch at a time.
package spatial

import (
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

// String renders the rectangle.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// SibTerm delegates a sub-rectangle to a contained sibling node (§2.1.1).
type SibTerm struct {
	Rect Rect
	Pid  storage.PageID
}

// Entry is a data point (level 0) or an index term (levels >= 1).
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
	Sibs    []SibTerm
	Entries []Entry
}

// IsData reports whether the node holds points.
func (n *Node) IsData() bool { return n.Level == 0 }

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
	i := sort.Search(len(n.Entries), func(i int) bool {
		return !n.Entries[i].P.Less(p)
	})
	if i < len(n.Entries) && n.Entries[i].P == p {
		return i, true
	}
	return i, false
}

// insertPoint places a data entry in sorted position; false on duplicate.
func (n *Node) insertPoint(e Entry) bool {
	i, dup := n.findPoint(e.P)
	if dup {
		return false
	}
	n.Entries = append(n.Entries, Entry{})
	copy(n.Entries[i+1:], n.Entries[i:])
	n.Entries[i] = e
	return true
}

// removePoint deletes the entry at p.
func (n *Node) removePoint(p Point) (Entry, bool) {
	i, ok := n.findPoint(p)
	if !ok {
		return Entry{}, false
	}
	e := n.Entries[i]
	n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
	return e, true
}

// termFor returns the position of the term referencing child.
func (n *Node) termFor(child storage.PageID) (int, bool) {
	for i := range n.Entries {
		if n.Entries[i].Child == child {
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
func (n *Node) chooseChild(p Point) (Entry, bool) {
	best := -1
	for i := range n.Entries {
		if !n.Entries[i].Rect.Contains(p) {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		if n.Entries[best].Rect.ContainsRect(n.Entries[i].Rect) {
			best = i
		}
	}
	if best == -1 {
		return Entry{}, false
	}
	return n.Entries[best], true
}

// clone returns a deep copy.
func (n *Node) clone() *Node {
	c := &Node{Level: n.Level, Direct: n.Direct}
	c.Sibs = append([]SibTerm(nil), n.Sibs...)
	c.Entries = make([]Entry, len(n.Entries))
	for i, e := range n.Entries {
		c.Entries[i] = e
		if e.Value != nil {
			c.Entries[i].Value = append([]byte(nil), e.Value...)
		}
	}
	return c
}

// --- serialization ----------------------------------------------------------

func encodeRect(w *enc.Writer, r Rect) {
	w.U64(r.X0)
	w.U64(r.Y0)
	w.U64(r.X1)
	w.U64(r.Y1)
}

func decodeRect(r *enc.Reader) Rect {
	return Rect{X0: r.U64(), Y0: r.U64(), X1: r.U64(), Y1: r.U64()}
}

func encodeEntry(w *enc.Writer, e Entry) {
	w.U64(e.P.X)
	w.U64(e.P.Y)
	w.Bytes32(e.Value)
	encodeRect(w, e.Rect)
	w.U64(uint64(e.Child))
	w.Bool(e.Clipped)
}

func decodeEntry(r *enc.Reader) Entry {
	var e Entry
	e.P.X = r.U64()
	e.P.Y = r.U64()
	e.Value = r.Bytes32()
	e.Rect = decodeRect(r)
	e.Child = storage.PageID(r.U64())
	e.Clipped = r.Bool()
	return e
}

func encodeNode(w *enc.Writer, n *Node) {
	w.U16(uint16(n.Level))
	encodeRect(w, n.Direct)
	w.U32(uint32(len(n.Sibs)))
	for _, s := range n.Sibs {
		encodeRect(w, s.Rect)
		w.U64(uint64(s.Pid))
	}
	w.U32(uint32(len(n.Entries)))
	for _, e := range n.Entries {
		encodeEntry(w, e)
	}
}

// Encoded sizes: a sibling term's, and the least an entry's. They bound the
// counts a decoder accepts by the bytes that are left to hold them.
const (
	sibTermBytes  = 4*8 + 8
	minEntryBytes = 8 + 8 + 4 + 4*8 + 8 + 1
)

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
	var err error
	n.Entries, err = decodeEntries(r)
	return n, err
}

// decodeEntries reads a counted list of entries.
func decodeEntries(r *enc.Reader) ([]Entry, error) {
	ne := int(r.U32())
	if r.Err() != nil || ne > r.Remaining()/minEntryBytes {
		return nil, enc.ErrTruncated
	}
	entries := make([]Entry, 0, ne)
	for i := 0; i < ne; i++ {
		entries = append(entries, decodeEntry(r))
	}
	return entries, r.Err()
}

func encNodeImage(n *Node) []byte {
	var w enc.Writer
	encodeNode(&w, n)
	return w.Bytes()
}

// Codec is the storage.Codec for spatial pages.
type Codec struct{}

// EncodePage implements storage.Codec.
func (Codec) EncodePage(v any) ([]byte, error) {
	n, ok := v.(*Node)
	if !ok {
		return nil, fmt.Errorf("spatial: cannot encode page of type %T", v)
	}
	var w enc.Writer
	encodeNode(&w, n)
	return w.Bytes(), nil
}

// DecodePage implements storage.Codec.
func (Codec) DecodePage(b []byte) (any, error) {
	return decodeNode(enc.NewReader(b))
}
