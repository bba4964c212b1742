package enc

import (
	"encoding/binary"
	"slices"
)

// Records holds the entries of one node as the bytes its page image stores
// for them: every record is one self-delimiting byte string in a single
// buffer, and a slot table lists them in logical order. A decoded node is
// then its page image plus the table — no struct and no allocation per
// entry — and encoding it back is a copy of the buffer.
//
// Inserted and replaced records are appended to the buffer, so physical
// order drifts from logical order and Delete and an unequal-length Replace
// leave holes. Holes are squeezed out when they outgrow the live bytes,
// when an insert finds the buffer full, and by Slice and Pick, which copy
// into buffers of exactly the size they need. A full buffer, and a full
// slot table, grow to what the next record needs, rounded up to the
// allocator's size class: a node holds its records' bytes, not the
// quarter or more that append's growth would leave unused (DESIGN.md
// §17). Not safe for concurrent mutation: a node's latch covers it.
type Records struct {
	buf   []byte // record i is buf[slots[i].off:][:slots[i].n]; the rest is holes
	slots []slot
	size  int // live bytes: the sum of the slots' lengths
}

type slot struct{ off, n uint32 }

// Len returns the number of records.
func (r *Records) Len() int { return len(r.slots) }

// Size returns the encoded size of the records: what AppendTo appends.
func (r *Records) Size() int { return r.size }

// At returns record i. The slice aliases the buffer: it is valid until the
// next mutation of r, and whatever must outlive that (or the node's latch)
// is copied by the caller. Writing through it changes the record in place.
func (r *Records) At(i int) []byte {
	s := r.slots[i]
	return r.buf[s.off : s.off+s.n : s.off+s.n]
}

// Insert makes a copy of rec the record at position i.
func (r *Records) Insert(i int, rec []byte) {
	s := r.put(rec)
	if len(r.slots) == cap(r.slots) {
		r.slots = append(classed[slot](len(r.slots)+1), r.slots...)
	}
	r.slots = append(r.slots, slot{})
	copy(r.slots[i+1:], r.slots[i:])
	r.slots[i] = s
}

// Replace overwrites record i with a copy of rec: in place when the length
// is unchanged, else like a Delete and an Insert at i.
func (r *Records) Replace(i int, rec []byte) {
	if s := r.slots[i]; int(s.n) == len(rec) {
		copy(r.buf[s.off:], rec)
		return
	}
	r.size -= int(r.slots[i].n)
	r.slots[i].n = 0 // a repack inside put must not carry the old bytes along
	s := r.put(rec)
	r.slots[i] = s
	r.shrink()
}

// Delete removes record i.
func (r *Records) Delete(i int) {
	r.size -= int(r.slots[i].n)
	r.slots = append(r.slots[:i], r.slots[i+1:]...)
	r.shrink()
}

// Reserve grows the buffer, if it must, so that n more bytes of records
// go in without another allocation: one buffer of exactly the size a run
// of inserts will fill, where append would grow it several times over.
// Holes are kept, as put keeps them while the buffer has room.
func (r *Records) Reserve(n int) {
	if len(r.buf)+n > cap(r.buf) {
		r.buf = append(make([]byte, 0, len(r.buf)+n), r.buf...)
	}
}

// put appends a copy of rec to the buffer. A full buffer grows to the
// size class of what it holds and rec; one with holes is repacked rather
// than grown around them, with an eighth of room beside rec, so that a run
// of inserts and deletes does not repack at every insert. rec may alias
// the buffer: neither leaves the old one changed.
func (r *Records) put(rec []byte) slot {
	if len(r.buf)+len(rec) > cap(r.buf) {
		if len(r.buf) > r.size {
			*r = r.pack(r.slots, len(rec)+r.size/8)
		} else {
			r.buf = append(classed[byte](len(r.buf)+len(rec)), r.buf...)
		}
	}
	s := slot{uint32(len(r.buf)), uint32(len(rec))}
	r.buf = append(r.buf, rec...)
	r.size += len(rec)
	return s
}

// classed returns an empty slice with room for n elements, rounded up to
// the allocator's size class: the room an allocation of n takes anyway.
func classed[E any](n int) []E { return slices.Grow([]E(nil), n) }

// shrink repacks the buffer once its holes outgrow its live bytes.
func (r *Records) shrink() {
	if len(r.buf)-r.size > r.size {
		*r = r.pack(r.slots, 0)
	}
}

// pack copies the records in ss, in that order, into a fresh buffer of
// exactly their size plus room, with a fresh slot table: nothing of r
// stays reachable from the result.
func (r *Records) pack(ss []slot, room int) Records {
	size := 0
	for _, s := range ss {
		size += int(s.n)
	}
	out := Records{buf: make([]byte, 0, size+room), slots: make([]slot, len(ss)), size: size}
	for i, s := range ss {
		out.slots[i] = slot{uint32(len(out.buf)), s.n}
		out.buf = append(out.buf, r.buf[s.off:s.off+s.n]...)
	}
	return out
}

// Slice returns records [lo, hi) as an independent, exactly sized copy.
// A split is two of them: the sibling takes Slice(mid, Len()) while the
// node is still whole, and once that is logged the node keeps Slice(0, mid).
func (r *Records) Slice(lo, hi int) Records { return r.pack(r.slots[lo:hi], 0) }

// Clone returns an independent copy of all records.
func (r *Records) Clone() Records { return r.pack(r.slots, 0) }

// Pick returns the records at positions idx, in that order, as an
// independent, exactly sized copy.
func (r *Records) Pick(idx []int) Records {
	ss := make([]slot, len(idx))
	for j, i := range idx {
		ss[j] = r.slots[i]
	}
	return r.pack(ss, 0)
}

// AppendTo appends the records in logical order to dst: one copy per run
// of physically adjacent records, so a single one for a buffer that was
// loaded, sliced or repacked and not changed since.
func (r *Records) AppendTo(dst []byte) []byte {
	for i := 0; i < len(r.slots); {
		start, end := r.slots[i].off, r.slots[i].off+r.slots[i].n
		for i++; i < len(r.slots) && r.slots[i].off == end; i++ {
			end += r.slots[i].n
		}
		dst = append(dst, r.buf[start:end]...)
	}
	return dst
}

// Layout is the shape of the records of one level of a tree, field by
// field: a positive number is that many fixed bytes, Var a length-prefixed
// byte string (Writer.Field). It has at least one field.
type Layout []int

// Var is the Layout entry of a length-prefixed byte string.
const Var = -1

// minSize returns the size of the smallest record of shape l: every
// string empty.
func (l Layout) minSize() int {
	n := 0
	for _, f := range l {
		if f == Var {
			f = 1 // a nil or empty string's prefix
		}
		n += f
	}
	return n
}

// One checks that b is exactly one record of shape l: a log payload that
// carries a single record passes it before the tree's view reads it.
func (l Layout) One(b []byte) error {
	if l.skip(b) != len(b) {
		return ErrTruncated
	}
	return nil
}

// skip returns the length of the record at the head of b, or -1 if b ends
// inside it.
func (l Layout) skip(b []byte) int {
	off := 0
	for _, f := range l {
		if f == Var {
			off = skipField(b, off)
		} else if off += f; off > len(b) {
			off = -1
		}
		if off < 0 {
			return -1
		}
	}
	return off
}

// Load indexes the count records of shape l that start at b[0] without
// copying them; a count or a record that b is too short for is
// ErrTruncated, and a slot table is only allocated for a count of records
// of the smallest size the input could hold. That is the only check of the
// records: the tree's field accessors read what l describes. The result
// aliases b — the caller hands b over, or keeps the Records no longer than
// b — and n is the number of bytes they occupy.
func Load(b []byte, count int, l Layout) (r Records, n int, err error) {
	if count < 0 || count > len(b)/l.minSize() {
		return Records{}, 0, ErrTruncated
	}
	slots := make([]slot, count)
	for i := range slots {
		size := l.skip(b[n:])
		if size < 0 {
			return Records{}, 0, ErrTruncated
		}
		slots[i] = slot{uint32(n), uint32(size)}
		n += size
	}
	return Records{buf: b[:n:n], slots: slots, size: n}, n, nil
}

// Field returns the length-prefixed byte string at b[off:] as Writer.Field
// wrote it — aliasing b, nil-ness preserved — and the offset behind it. The
// field must be whole: Load checked that.
func Field(b []byte, off int) ([]byte, int) {
	n, k := uint64(b[off]), 1
	if n >= 0x80 {
		n, k = binary.Uvarint(b[off:])
	}
	off += k
	if n == 0 {
		return nil, off
	}
	end := off + int(n-1)
	return b[off:end:end], end
}

// skipField returns the offset behind the length-prefixed byte string at
// b[off:], or -1 if b ends first or its prefix overflows 64 bits or is
// longer than it needs (a record has one encoding).
func skipField(b []byte, off int) int {
	if off >= len(b) {
		return -1
	}
	n, k := uint64(b[off]), 1
	if n >= 0x80 {
		if n, k = binary.Uvarint(b[off:]); k <= 0 || b[off+k-1] == 0 {
			return -1
		}
	}
	if off += k; n == 0 {
		return off
	}
	if n-1 > uint64(len(b)-off) {
		return -1
	}
	return off + int(n-1)
}
