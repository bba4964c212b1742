package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Meta is the decoded contents of a store's space-management page. The
// paper orders space-management information last in the latch order
// (§4.1.1); callers must therefore latch the meta frame only while holding
// no intention of latching further pages.
//
// Meta is mutated only through logged operations (see Alloc/Free/SetRoot
// kinds registered by this package with the recovery registry), so its
// state is reconstructed by redo like any other page.
type Meta struct {
	// Next is the next never-allocated page ID.
	Next PageID
	// Free holds de-allocated page IDs available for reuse, kept sorted
	// ascending. The sorted order is canonical: it makes the encoded meta
	// page a pure function of the free SET, so restarts that replay
	// de-allocation compensations in different worker interleavings
	// (parallel undo) still converge to byte-identical meta images — the
	// property the serial-vs-parallel equivalence oracle asserts.
	Free []PageID
	// Roots maps index names to their root page IDs. Roots never move and
	// are never de-allocated (§5.2.2 strategy (a) relies on this).
	Roots map[string]PageID
}

// NewMeta returns the initial meta contents for an empty store: page IDs
// begin after the meta page itself.
func NewMeta() *Meta {
	return &Meta{Next: MetaPage + 1, Roots: make(map[string]PageID)}
}

// AllocLocal takes a page ID from the free list or the never-allocated
// range. The caller must hold the meta frame's X latch and must log the
// operation (KindMetaAlloc) itself. The pop takes the largest free ID —
// O(1), and deterministic given the free set.
func (m *Meta) AllocLocal() PageID {
	if n := len(m.Free); n > 0 {
		pid := m.Free[n-1]
		m.Free = m.Free[:n-1]
		return pid
	}
	pid := m.Next
	m.Next++
	return pid
}

// freePos returns the sorted-insert position of pid and whether it is
// already present.
func (m *Meta) freePos(pid PageID) (int, bool) {
	i := sort.Search(len(m.Free), func(j int) bool { return m.Free[j] >= pid })
	return i, i < len(m.Free) && m.Free[i] == pid
}

// FreeLocal returns pid to the free list at its sorted position. Caller
// holds the X latch and logs the operation (KindMetaFree).
func (m *Meta) FreeLocal(pid PageID) {
	i, present := m.freePos(pid)
	if present {
		return
	}
	m.Free = append(m.Free, 0)
	copy(m.Free[i+1:], m.Free[i:])
	m.Free[i] = pid
}

// RemoveFree withdraws pid from the free list if present, used by redo and
// undo to keep replay idempotent.
func (m *Meta) RemoveFree(pid PageID) {
	i, present := m.freePos(pid)
	if !present {
		return
	}
	m.Free = append(m.Free[:i], m.Free[i+1:]...)
}

// IsFree reports whether pid is on the free list.
func (m *Meta) IsFree(pid PageID) bool {
	_, present := m.freePos(pid)
	return present
}

// appendTo appends the serialized meta page to b.
func (m *Meta) appendTo(b []byte) []byte {
	names := make([]string, 0, len(m.Roots))
	for n := range m.Roots {
		names = append(names, n)
	}
	sort.Strings(names)
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		b = append(b, tmp[:]...)
	}
	put64(uint64(m.Next))
	put64(uint64(len(m.Free)))
	for _, f := range m.Free {
		put64(uint64(f))
	}
	put64(uint64(len(names)))
	for _, n := range names {
		put64(uint64(len(n)))
		b = append(b, n...)
		put64(uint64(m.Roots[n]))
	}
	return b
}

func decodeMeta(b []byte) (*Meta, error) {
	m := &Meta{Roots: make(map[string]PageID)}
	off := 0
	get64 := func() (uint64, error) {
		if off+8 > len(b) {
			return 0, fmt.Errorf("storage: truncated meta page")
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, nil
	}
	v, err := get64()
	if err != nil {
		return nil, err
	}
	m.Next = PageID(v)
	nfree, err := get64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nfree; i++ {
		f, err := get64()
		if err != nil {
			return nil, err
		}
		m.FreeLocal(PageID(f))
	}
	nroots, err := get64()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nroots; i++ {
		nlen, err := get64()
		if err != nil {
			return nil, err
		}
		if off+int(nlen) > len(b) {
			return nil, fmt.Errorf("storage: truncated meta root name")
		}
		name := string(b[off : off+int(nlen)])
		off += int(nlen)
		pid, err := get64()
		if err != nil {
			return nil, err
		}
		m.Roots[name] = PageID(pid)
	}
	return m, nil
}
