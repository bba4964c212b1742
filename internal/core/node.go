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
	"fmt"

	"repro/internal/enc"
	"repro/internal/keys"
	"repro/internal/storage"
)

// Entry is one slot of a node: a data record (Value) in leaves, an index
// term (Child) in index nodes. For an index term, Key is the low bound of
// the space the child is responsible for; the term's space extends to the
// next entry's key (or the node's High).
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
	// Entries are sorted by Key. In an index node the first entry's key
	// equals Low: the union of index-term spaces must cover the directly
	// contained space (well-formedness rule 4).
	Entries []Entry
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

// search returns the position of k among the entries and whether an entry
// with exactly key k exists. The binary search is written out rather than
// going through sort.Search: node lookups run several times per descent
// on every operation, and the explicit loop drops the closure call per
// probe and exits on an exact match (keys are unique within a node), so a
// hit costs one comparison per level of the search instead of a full
// lower-bound pass plus an equality check.
func (n *Node) search(k keys.Key) (int, bool) {
	lo, hi := 0, len(n.Entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := keys.Compare(n.Entries[mid].Key, k)
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
		return n.Entries[i], true
	}
	if i == 0 {
		return Entry{}, false
	}
	return n.Entries[i-1], true
}

// insertEntry places e at its sorted position. It reports whether an
// entry with the same key already existed (in which case nothing changes).
func (n *Node) insertEntry(e Entry) bool {
	i, exact := n.search(e.Key)
	if exact {
		return false
	}
	n.Entries = append(n.Entries, Entry{})
	copy(n.Entries[i+1:], n.Entries[i:])
	n.Entries[i] = e
	return true
}

// deleteEntry removes the entry with key k, reporting whether it existed.
func (n *Node) deleteEntry(k keys.Key) (Entry, bool) {
	i, exact := n.search(k)
	if !exact {
		return Entry{}, false
	}
	e := n.Entries[i]
	n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
	return e, true
}

// clone returns a deep copy of the node, used for undo payloads.
func (n *Node) clone() *Node {
	c := &Node{
		Level: n.Level,
		Low:   keys.Clone(n.Low),
		High:  n.High,
		Right: n.Right,
		Dead:  n.Dead,
	}
	c.High.Key = keys.Clone(n.High.Key)
	c.Entries = make([]Entry, len(n.Entries))
	for i, e := range n.Entries {
		c.Entries[i] = Entry{Key: keys.Clone(e.Key), Child: e.Child}
		if e.Value != nil {
			c.Entries[i].Value = append([]byte(nil), e.Value...)
		}
	}
	return c
}

// String renders a compact diagnostic form.
func (n *Node) String() string {
	iv := keys.Interval{Low: n.Low, High: n.High}
	return fmt.Sprintf("node{L%d %s right=%d n=%d dead=%v}", n.Level, iv, n.Right, len(n.Entries), n.Dead)
}

// encodeNode serializes a node (page image or log payload).
func encodeNode(w *enc.Writer, n *Node) {
	w.U16(uint16(n.Level))
	w.Bool(n.Dead)
	w.Bytes32(n.Low)
	w.Bool(n.High.Unbounded)
	w.Bytes32(n.High.Key)
	w.U64(uint64(n.Right))
	w.U32(uint32(len(n.Entries)))
	for _, e := range n.Entries {
		encodeEntry(w, e)
	}
}

func decodeNode(r *enc.Reader) (*Node, error) {
	n := &Node{}
	n.Level = int(r.U16())
	n.Dead = r.Bool()
	n.Low = r.Bytes32()
	n.High.Unbounded = r.Bool()
	n.High.Key = r.Bytes32()
	n.Right = storage.PageID(r.U64())
	cnt := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if cnt > r.Remaining()/minEntryBytes {
		return nil, enc.ErrTruncated
	}
	n.Entries = make([]Entry, 0, cnt)
	for i := 0; i < cnt; i++ {
		e, err := decodeEntry(r)
		if err != nil {
			return nil, err
		}
		n.Entries = append(n.Entries, e)
	}
	return n, r.Err()
}

// minEntryBytes is the least an encoded entry occupies; it bounds the
// entry count a decoder accepts by the bytes that are left to hold them.
const minEntryBytes = 4 + 4 + 8

func encodeEntry(w *enc.Writer, e Entry) {
	w.Bytes32(e.Key)
	w.Bytes32(e.Value)
	w.U64(uint64(e.Child))
}

func decodeEntry(r *enc.Reader) (Entry, error) {
	e := Entry{
		Key:   r.Bytes32(),
		Value: r.Bytes32(),
	}
	e.Child = storage.PageID(r.U64())
	return e, r.Err()
}

// Codec is the storage.Codec for Π-tree pages.
type Codec struct{}

// EncodePage implements storage.Codec.
func (Codec) EncodePage(v any) ([]byte, error) {
	n, ok := v.(*Node)
	if !ok {
		return nil, fmt.Errorf("core: cannot encode page of type %T", v)
	}
	var w enc.Writer
	encodeNode(&w, n)
	return w.Bytes(), nil
}

// DecodePage implements storage.Codec.
func (Codec) DecodePage(b []byte) (any, error) {
	return decodeNode(enc.NewReader(b))
}

// SuccessorHint implements storage.SuccessorCodec: a leaf's scan-order
// successor is its side pointer, which is what RangeScan follows. Index
// nodes return no hint — read-ahead chains along the leaf level only.
func (Codec) SuccessorHint(data any) storage.PageID {
	if n, ok := data.(*Node); ok && n.Level == 0 {
		return n.Right
	}
	return storage.NilPage
}
