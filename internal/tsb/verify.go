package tsb

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/pitree"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Shape summarizes a verified TSB tree.
type Shape struct {
	Height       int
	IndexNodes   int
	CurrentNodes int
	HistoryNodes int
	// Versions counts slots across data nodes (copies included: a
	// version alive across a time split exists in two nodes).
	Versions int
	// CurrentVersions counts slots in current nodes only.
	CurrentVersions int
}

// Verify checks TSB well-formedness (§2.1.3 adapted to rectangles) at a
// quiescent point. The kernel walks the tree (pitree.Kernel.Verify); the
// rectangle clauses are the checker's:
//
//   - the root covers all keys at all times;
//   - every term references a node with the term's low key;
//   - versions lie inside their node's key range, start before its time
//     bound, and are in (key, start) order;
//   - each index level chains contiguously by key, and so does the
//     current data chain, partitioning the key space at the current time;
//   - each current node's history chain partitions its past time range:
//     each history node ends where the next newer node begins, with a key
//     range that contains that node's (key ranges only shrink going
//     forward in time);
//   - a current node has history back to time 0 unless its time low is at
//     or below the visibility horizon: version GC frees a chain's tail
//     only below the horizon, which never moves back within a run. Across
//     a restart it can (DESIGN.md §20), but never below the recovered
//     clock high water, which is above every surviving free.
func (t *Tree) Verify() (Shape, error) {
	c := &checker{tm: t.tm, spans: make(map[storage.PageID]pitree.Span)}
	err := t.kern.Verify(c)
	return c.shape, err
}

// checker is the TSB tree's side of pitree.Kernel.Verify. It keeps the
// span of every index node and current data node, and per level the
// leftmost and the count of them (level 0: current data nodes only), for
// the key chains.
type checker struct {
	tm       *txn.Manager
	shape    Shape
	spans    map[storage.PageID]pitree.Span
	leftmost []storage.PageID
	count    []int
}

func (c *checker) Root(r nref) error {
	if rect := r.N.Rect; !(rect.KeyLow == nil && rect.KeyHigh.Unbounded && rect.TimeLow == 0 && rect.TimeHigh == NoEnd) {
		return fmt.Errorf("root rect %v not the entire space", rect)
	}
	c.shape.Height = r.N.Level + 1
	c.leftmost = make([]storage.PageID, c.shape.Height)
	c.count = make([]int, c.shape.Height)
	return nil
}

func (c *checker) Node(r nref) error {
	n, pid, rect := r.N, r.Pid(), cloneRect(r.N.Rect)
	switch {
	case n.IsData():
		if err := verifyVersions(n, pid); err != nil {
			return err
		}
		c.shape.Versions += n.Len()
		if !n.Current() {
			c.shape.HistoryNodes++
			return nil
		}
		// GC frees retired chain tails, so a current node may have lost
		// its whole history — but only history below the horizon.
		if n.HistSib == storage.NilPage && rect.TimeLow > max(c.tm.VisibilityHorizon(), c.tm.RecoveredClockHW()) {
			return fmt.Errorf("current node %d has time low %d but no history", pid, rect.TimeLow)
		}
		c.shape.CurrentNodes++
		c.shape.CurrentVersions += n.Len()
	case n.Len() == 0:
		return fmt.Errorf("empty index node %d", pid)
	default:
		current := false // a current term for the lowest keys
		for i := 0; n.Level == 1 && i < n.Len(); i++ {
			// chooseTerm binary-searches level-1 terms, so the (KeyLow,
			// TimeLow) sort order is load-bearing.
			r := n.rectAt(i)
			if i > 0 {
				if p := n.rectAt(i - 1); keys.Compare(p.KeyLow, r.KeyLow) > 0 || keys.Equal(p.KeyLow, r.KeyLow) && p.TimeLow > r.TimeLow {
					return fmt.Errorf("node %d terms out of (KeyLow, TimeLow) order at %d", pid, i)
				}
			}
			current = current || r.KeyLow == nil && r.TimeHigh == NoEnd
		}
		if n.Level == 1 && rect.KeyLow == nil && !current {
			return fmt.Errorf("level 1 has no leftmost current child term (run DrainCompletions before verifying)")
		}
		c.shape.IndexNodes++
	}
	if rect.KeyLow == nil {
		c.leftmost[n.Level] = pid
	}
	c.count[n.Level]++
	c.spans[pid] = pitree.Span{Low: rect.KeyLow, High: rect.KeyHigh, Next: n.KeySib}
	return nil
}

// Link checks an index term's child and a history edge; a key sibling is
// the chain's (Partition).
func (c *checker) Link(from nref, i int, to nref) error {
	p, ch := from.N, to.N.Rect
	switch {
	case i < 0 && p.HistSib == to.Pid():
		return history(from.Pid(), p.Rect, to.Pid(), ch)
	case i < 0:
		return nil
	case p.Level != 1:
		if k := p.keyAt(i); !keys.Equal(k, ch.KeyLow) {
			return fmt.Errorf("key term %x vs child low %x", k, ch.KeyLow)
		}
		return nil
	}
	if r := p.rectAt(i); !keys.Equal(r.KeyLow, ch.KeyLow) {
		return fmt.Errorf("term rect %v vs child low %x", r, ch.KeyLow)
	} else if r.TimeLow > ch.TimeLow && ch.TimeHigh == NoEnd {
		return fmt.Errorf("term %v starts after current child's time low %d", r, ch.TimeLow)
	}
	return nil
}

// history checks the edge from data node pid, of rectangle n, to hpid, the
// next older node of its history chain, of rectangle h.
func history(pid storage.PageID, n Rect, hpid storage.PageID, h Rect) error {
	switch {
	case h.TimeHigh == NoEnd:
		return fmt.Errorf("current node %d in history chain", hpid)
	case h.TimeHigh != n.TimeLow:
		return fmt.Errorf("history node %d time high %d, want %d", hpid, h.TimeHigh, n.TimeLow)
	case h.KeyLow != nil && (n.KeyLow == nil || keys.Compare(n.KeyLow, h.KeyLow) < 0):
		return fmt.Errorf("history node %d key range does not contain %d's", hpid, pid)
	case !h.KeyHigh.Unbounded && (n.KeyHigh.Unbounded || keys.Compare(n.KeyHigh.Key, h.KeyHigh.Key) > 0):
		return fmt.Errorf("history node %d key high below %d's", hpid, pid)
	}
	return nil
}

// Partition checks the key chain of each index level and then the current
// chain.
func (c *checker) Partition() error {
	for level := len(c.count) - 1; level >= 0; level-- {
		if err := pitree.Chain(c.spans, c.leftmost[level], c.count[level]); err != nil && level == 0 {
			return fmt.Errorf("current chain: %w", err)
		} else if err != nil {
			return fmt.Errorf("level %d: %w", level, err)
		}
	}
	return nil
}

// verifyVersions checks a data node's versions: inside its key range,
// started before its time bound, in (key, start) order.
func verifyVersions(n *Node, pid storage.PageID) error {
	for i := 0; i < n.Len(); i++ {
		e := n.entry(i)
		if !n.Rect.ContainsKey(e.Key) {
			return fmt.Errorf("node %d version %x outside key range %v", pid, e.Key, n.Rect)
		}
		if e.Start >= n.Rect.TimeHigh {
			return fmt.Errorf("node %d version (%x,%d) at/after time high %d", pid, e.Key, e.Start, n.Rect.TimeHigh)
		}
		if i == 0 {
			continue
		}
		if c := keys.Compare(n.keyAt(i-1), e.Key); c > 0 || c == 0 && n.startAt(i-1) >= e.Start {
			return fmt.Errorf("node %d versions out of order at %d", pid, i)
		}
	}
	return nil
}
