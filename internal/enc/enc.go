// Package enc provides the minimal length-prefixed binary writer/reader
// used for page images and log-record payloads. All fixed-width integers
// are little endian. A byte string (a field) is prefixed by the uvarint
// of its length plus one, with 0 reserved to distinguish a nil slice from
// an empty one (nil keys mean "-infinity" in interval bounds, so the
// distinction is load-bearing): an 8-byte key or a 100-byte value spends
// one byte on its length.
package enc

import (
	"encoding/binary"
	"errors"
)

// ErrTruncated reports a read past the end of the buffer.
var ErrTruncated = errors.New("enc: truncated input")

// ErrVarint reports a varint longer than 64 bits, or a field's length
// prefix in more bytes than its value needs: a field has one encoding.
var ErrVarint = errors.New("enc: varint overflows 64 bits")

// Writer accumulates an encoded byte string.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset makes w append to dst: Bytes then returns dst with the encoding
// behind it, for a caller that has a prefix or a scratch buffer.
func (w *Writer) Reset(dst []byte) { w.buf = dst }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) { w.U8(Bit(v)) }

// Bit is the byte a boolean is encoded as.
func Bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// U16 appends a 16-bit integer.
func (w *Writer) U16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// U32 appends a 32-bit integer.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// U64 appends a 64-bit integer.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// Field appends a length-prefixed byte string, preserving nil-ness.
func (w *Writer) Field(b []byte) { w.buf = AppendField(w.buf, b) }

// AppendField is Writer.Field on a plain slice, for an encoder whose
// scratch buffer has to stay on its caller's stack: the uvarint of
// len(b)+1, 0 for a nil b, then b.
func AppendField(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	return append(binary.AppendUvarint(dst, uint64(len(b))+1), b...)
}

// FieldSize is the length of b's field: what AppendField appends. A nil
// and an empty string both take one byte.
func FieldSize(b []byte) int { return FieldLen(len(b)) }

// FieldLen is the length of the field of an n-byte string.
func FieldLen(n int) int {
	size := 1
	for v := n + 1; v >= 0x80; v >>= 7 {
		size++
	}
	return size + n
}

// Carve copies b into the spare capacity of buf and returns buf extended
// and the copy, capped at its length and nil-ness preserved. A scan sizes
// buf once for what it copies out of a leaf, so that its copies cost one
// allocation per leaf rather than one per string; with too little room,
// append gives the copy a buffer of its own.
func Carve(buf, b []byte) (rest, c []byte) {
	if b == nil {
		return buf, nil
	}
	n := len(buf)
	buf = append(buf, b...)
	return buf, buf[n:len(buf):len(buf)]
}

// NilIfEmpty returns nil for an empty v and v otherwise. The trees' writes
// store an empty value as a nil one — the nil marker on the page — which
// is how the copy they once made of every value came out.
func NilIfEmpty(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	return v
}

// Reader consumes an encoding produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Records reads count records with Load and moves behind them. They alias
// the reader's input.
func (r *Reader) Records(count int, l Layout) Records {
	if r.err != nil {
		return Records{}
	}
	recs, n, err := Load(r.buf[r.off:], count, l)
	r.off, r.err = r.off+n, err
	return recs
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a 16-bit integer.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a 32-bit integer.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a 64-bit integer.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uvarint reads an unsigned varint as binary.AppendUvarint wrote it.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.err = ErrTruncated
	case n < 0:
		r.err = ErrVarint
	}
	if n <= 0 {
		return 0
	}
	r.off += n
	return v
}

// Rest reads what remains of the input; the result aliases it.
func (r *Reader) Rest() []byte { return r.take(r.Remaining()) }

// Field reads a length-prefixed byte string. The result is a fresh copy
// and nil-ness is preserved.
func (r *Reader) Field() []byte {
	b := r.ViewField()
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, len(b)), b...)
}

// ViewField is Field without the copy: the result aliases the reader's
// input. A length past the input is ErrTruncated, as is a cut prefix;
// a prefix past 64 bits or longer than it needs is ErrVarint.
func (r *Reader) ViewField() []byte {
	if r.err != nil {
		return nil
	}
	n, k := binary.Uvarint(r.buf[r.off:])
	switch {
	case k == 0:
		r.err = ErrTruncated
	case k < 0 || k > 1 && r.buf[r.off+k-1] == 0:
		r.err = ErrVarint
	case n != 0 && n-1 > uint64(len(r.buf)-r.off-k):
		r.err = ErrTruncated
	}
	if r.err != nil {
		return nil
	}
	if r.off += k; n == 0 {
		return nil
	}
	return r.take(int(n - 1))
}
