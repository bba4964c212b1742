// Package core implements the Π-tree of Lomet & Salzberg (SIGMOD 1992),
// instantiated as a B-link tree over a one-dimensional key space, together
// with the paper's full concurrency-and-recovery protocol:
//
//   - structure changes decomposed into short atomic actions, each leaving
//     the tree well-formed (§5);
//   - node splits in one atomic action, index-term posting in another,
//     with the §5.3 posting algorithm implemented step for step;
//   - lazy completion of interrupted structure changes, discovered by side
//     pointer traversals during normal operation (§5.1);
//   - S/U/X latching with deadlock avoidance by resource ordering, the
//     No-Wait rule against latch-lock deadlocks, and move locks for
//     page-oriented UNDO (§4);
//   - saved-path re-traversal verified by state identifiers, under both
//     the CNS (no consolidation) and CP (consolidation possible)
//     invariants and both de-allocation strategies (§5.2);
//   - node consolidation as a single atomic action spanning two adjacent
//     levels (§3.3, §5).
//
// Every node is responsible for a half-open key interval. It directly
// contains [Low, High) and delegates [High, ...) to the sibling its side
// pointer references, so each level of the tree partitions the whole key
// space — the invariant that gives the Π-tree its name.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/storage"
)

// Entry is one slot of a node: a data record (Value) in leaves, an index
// term (Child) in index nodes. For an index term, Key is the low bound of
// the space the child is responsible for; the term's space extends to the
// next entry's key (or the node's High). An Entry read from a node is a
// view: Key and Value alias the node's buffer (DESIGN.md §17).
type Entry struct {
	Key   keys.Key
	Value []byte
	Child storage.PageID
}

// Node is the decoded contents of one Π-tree page.
//
// Responsibility vs. direct containment (§2.1.1): the node is responsible
// for [Low, end-of-its-sibling-chain); it directly contains [Low, High)
// and its sibling term — the (High, Right) pair — delegates [High, ...)
// to the contained node Right. Right is NilPage for the last node of a
// level, in which case High is unbounded.
type Node struct {
	// Level is 0 for data (leaf) nodes; index nodes sit one level above
	// their children.
	Level int
	// Low is the inclusive lower bound of the node's responsible space
	// (nil = -infinity). It never changes while the node is allocated.
	Low keys.Key
	// High is the exclusive upper bound of the directly contained space.
	High keys.Bound
	// Right is the side pointer to the sibling node responsible for
	// [High, ...): the sibling term of §2.1.1.
	Right storage.PageID
	// Dead marks a de-allocated node under the "de-allocation is a node
	// update" strategy (§5.2.2(b)); the state identifier bump that sets
	// it is what re-traversals detect.
	Dead bool
	// recs are the entries as the page image stores them, sorted by key;
	// views of them hold under the node's latch until the next mutation.
	// In an index node the first entry's key equals Low: the union of
	// index-term spaces must cover the directly contained space
	// (well-formedness rule 4).
	recs enc.Records
}

// IsLeaf reports whether the node is a data node.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// DirectlyContains reports whether k is in the node's directly contained
// space.
func (n *Node) DirectlyContains(k keys.Key) bool {
	if n.Low != nil && keys.Compare(k, n.Low) < 0 {
		return false
	}
	return n.High.ContainsBelow(k)
}

// Len returns the number of entries.
func (n *Node) Len() int { return n.recs.Len() }

// keyAt returns entry i's key, and entry all of it, as views.
func (n *Node) keyAt(i int) keys.Key {
	k, _ := enc.Field(n.recs.At(i), 0)
	return k
}

func (n *Node) entry(i int) Entry { return viewEntry(n.Level, n.recs.At(i)) }

// search returns the position of k among the entries and whether an entry
// with exactly key k exists. The binary search is written out rather than
// going through sort.Search: node lookups run several times per descent
// on every operation, and the explicit loop drops the closure call per
// probe and exits on an exact match (keys are unique within a node), so a
// hit costs one comparison per level of the search instead of a full
// lower-bound pass plus an equality check.
func (n *Node) search(k keys.Key) (int, bool) {
	lo, hi := 0, n.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := keys.Compare(n.keyAt(mid), k)
		if c < 0 {
			lo = mid + 1
		} else if c > 0 {
			hi = mid
		} else {
			return mid, true
		}
	}
	return lo, false
}

// childFor returns the index term covering k: the entry with the largest
// key <= k. ok is false when k precedes every entry (possible only
// transiently or on malformed nodes; callers treat it as "retry").
func (n *Node) childFor(k keys.Key) (Entry, bool) {
	i, exact := n.search(k)
	if exact {
		return n.entry(i), true
	}
	if i == 0 {
		return Entry{}, false
	}
	return n.entry(i - 1), true
}

// insertEntry places a copy of e at its sorted position. It reports whether
// an entry with the same key already existed (in which case nothing changes).
func (n *Node) insertEntry(e Entry) bool {
	i, exact := n.search(e.Key)
	if !exact {
		n.insertAt(i, e)
	}
	return !exact
}

// insertAt places a copy of e at position i, where search put it.
func (n *Node) insertAt(i int, e Entry) {
	var scratch [256]byte
	n.recs.Insert(i, appendEntry(scratch[:0], n.Level, e))
}

// setValue replaces entry i's value with a copy of v: in place when the
// length is unchanged.
func (n *Node) setValue(i int, v []byte) {
	var scratch [256]byte
	n.recs.Replace(i, appendLeaf(scratch[:0], n.keyAt(i), v))
}

// absorb takes in copies of c's entries (consolidation: all above n's own).
func (n *Node) absorb(c *Node) {
	for i := 0; i < c.Len(); i++ {
		n.insertEntry(c.entry(i))
	}
}

// deleteEntry removes the entry with key k, reporting whether it existed.
func (n *Node) deleteEntry(k keys.Key) bool {
	i, exact := n.search(k)
	if exact {
		n.recs.Delete(i)
	}
	return exact
}

// clone returns a deep copy of the node: a navigation snapshot.
func (n *Node) clone() *Node {
	c := *n
	c.Low = keys.Clone(n.Low)
	c.High.Key = keys.Clone(n.High.Key)
	c.recs = n.recs.Clone()
	return &c
}

// String renders a compact diagnostic form.
func (n *Node) String() string {
	iv := keys.Interval{Low: n.Low, High: n.High}
	return fmt.Sprintf("node{L%d %s right=%d n=%d dead=%v}", n.Level, iv, n.Right, n.Len(), n.Dead)
}

// nodeHdrLen is the fixed part of encodeNode's header: the level, the dead
// mark, the unbounded mark, the side pointer and the record count; the
// bounds are fields beside it.
const nodeHdrLen = 2 + 1 + 1 + 8 + 4

// EncodedSize is the length of the node's image, in O(1).
func (n *Node) EncodedSize() int {
	return nodeHdrLen + enc.FieldSize(n.Low) + enc.FieldSize(n.High.Key) + n.recs.Size()
}

// leafSize is the encoded size of a leaf record (appendLeaf).
func leafSize(k keys.Key, v []byte) int { return enc.FieldSize(k) + enc.FieldSize(v) }

// termSize is the encoded size of an index term (appendTerm).
func termSize(k keys.Key) int { return enc.FieldSize(k) + 8 }

// encodeNode serializes a node (page image or log payload).
func encodeNode(w *enc.Writer, n *Node) {
	w.U16(uint16(n.Level))
	w.Bool(n.Dead)
	w.Field(n.Low)
	w.Bool(n.High.Unbounded)
	w.Field(n.High.Key)
	w.U64(uint64(n.Right))
	w.U32(uint32(n.Len()))
	w.Reset(n.recs.AppendTo(w.Bytes()))
}

// decodeNode reads a node whose entries ALIAS r's input: a page image the
// caller hands over, a payload it only reads, or a copy of one
// (pitree.NodeKinds' redo). The bounds are copied: a few key bytes must not pin
// a buffer the entries have outgrown.
func decodeNode(r *enc.Reader) (*Node, error) {
	n := &Node{}
	n.Level = int(r.U16())
	n.Dead = r.Bool()
	n.Low = r.Field()
	n.High.Unbounded = r.Bool()
	n.High.Key = r.Field()
	n.Right = storage.PageID(r.U64())
	n.recs = r.Records(int(r.U32()), layoutOf(n.Level))
	return n, r.Err()
}

// A record holds only its level's fields (DESIGN.md §17): a leaf entry is
// its key and value, an index term its key and child. Each level has one
// layout, one append function and one view, and they are the codec of the
// log payloads that carry one record as well: an insert or a delete is a
// leaf entry, a posting, a term's removal and a split's cut an index term.
var (
	leafLayout = enc.Layout{enc.Var, enc.Var}
	termLayout = enc.Layout{enc.Var, 8}
)

func layoutOf(level int) enc.Layout {
	if level == 0 {
		return leafLayout
	}
	return termLayout
}

// appendLeaf and appendTerm append a record to dst: plain appends, not a
// Writer, so that a caller's scratch buffer stays on its stack.
func appendLeaf(dst []byte, k keys.Key, v []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, leafSize(k, v)) // a log payload: one exact allocation
	}
	return enc.AppendField(enc.AppendField(dst, k), v)
}

func appendTerm(dst []byte, k keys.Key, child storage.PageID) []byte {
	return binary.LittleEndian.AppendUint64(enc.AppendField(dst, k), uint64(child))
}

// viewLeaf and viewTerm read a record of their level; Key and Value alias it.
func viewLeaf(rec []byte) Entry {
	k, off := enc.Field(rec, 0)
	v, _ := enc.Field(rec, off)
	return Entry{Key: k, Value: v}
}

func viewTerm(rec []byte) Entry {
	k, off := enc.Field(rec, 0)
	return Entry{Key: k, Child: storage.PageID(binary.LittleEndian.Uint64(rec[off:]))}
}

// appendEntry appends e as a record of level; viewEntry reads one.
func appendEntry(dst []byte, level int, e Entry) []byte {
	if level == 0 {
		return appendLeaf(dst, e.Key, e.Value)
	}
	return appendTerm(dst, e.Key, e.Child)
}

func viewEntry(level int, rec []byte) Entry {
	if level == 0 {
		return viewLeaf(rec)
	}
	return viewTerm(rec)
}

// decRecord reads a log payload that is one record of level: its view,
// once the level's layout has checked it. The fields alias b.
func decRecord(level int, b []byte) (Entry, error) {
	if err := layoutOf(level).One(b); err != nil {
		return Entry{}, err
	}
	return viewEntry(level, b), nil
}

// Codec is the storage.Codec for Π-tree pages.
type Codec struct{}

// AppendPage implements storage.Codec.
func (Codec) AppendPage(dst []byte, v any) ([]byte, error) {
	n, ok := v.(*Node)
	if !ok {
		return nil, fmt.Errorf("core: cannot encode page of type %T", v)
	}
	var w enc.Writer
	w.Reset(dst)
	encodeNode(&w, n)
	return w.Bytes(), nil
}

// DecodePage implements storage.Codec: the node keeps b.
func (Codec) DecodePage(b []byte) (any, error) { return decNodeImage(b) }

// SuccessorHint implements storage.SuccessorCodec: a leaf's scan-order
// successor is its side pointer, which is what RangeScan follows, unless
// the leaf covers the scan's end (its high bound is at or past end), where
// a RangeScan to end stops. Index nodes return no hint — read-ahead
// chains along the leaf level only.
func (Codec) SuccessorHint(data any, end []byte) storage.PageID {
	n, ok := data.(*Node)
	if !ok || n.Level != 0 || end != nil && !n.High.LessHigh(keys.Bound{Key: end}) {
		return storage.NilPage
	}
	return n.Right
}
