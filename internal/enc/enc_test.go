package enc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestRoundTripAllTypes(t *testing.T) {
	var w Writer
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0102030405060708)
	w.Field([]byte("hello"))
	w.Field(nil)
	w.Field([]byte{})

	r := NewReader(w.Bytes())
	if r.U8() != 7 || !r.Bool() || r.Bool() {
		t.Fatal("u8/bool round trip")
	}
	if r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 0x0102030405060708 {
		t.Fatal("integer round trip")
	}
	if string(r.Field()) != "hello" {
		t.Fatal("bytes round trip")
	}
	if r.Field() != nil {
		t.Fatal("nil-ness not preserved")
	}
	if b := r.Field(); b == nil || len(b) != 0 {
		t.Fatal("empty slice not preserved")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b []byte, c uint16, d []byte) bool {
		var w Writer
		w.U64(a)
		w.Field(b)
		w.U16(c)
		w.Field(d)
		r := NewReader(w.Bytes())
		ga := r.U64()
		gb := r.Field()
		gc := r.U16()
		gd := r.Field()
		if r.Err() != nil {
			return false
		}
		eq := func(x, y []byte) bool {
			if x == nil || y == nil {
				return x == nil && y == nil
			}
			return bytes.Equal(x, y)
		}
		return ga == a && gc == c && eq(gb, b) && eq(gd, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncationDetected(t *testing.T) {
	var w Writer
	w.U64(42)
	w.Field([]byte("payload"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.U64()
		_ = r.Field()
		if cut < len(full) && r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestReadsAfterErrorReturnZero(t *testing.T) {
	r := NewReader([]byte{1})
	_ = r.U64() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	if r.U32() != 0 || r.Field() != nil || r.Bool() {
		t.Fatal("post-error reads must be zero values")
	}
}

func TestFieldCopyIsIndependent(t *testing.T) {
	var w Writer
	w.Field([]byte{1, 2, 3})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Field()
	got[0] = 99
	r2 := NewReader(buf)
	if r2.Field()[0] != 1 {
		t.Fatal("decoded slice aliases the input buffer")
	}
}

// TestUvarintAndRest: varints read back as binary.AppendUvarint wrote them,
// a cut one is ErrTruncated and an overlong one ErrVarint, and Rest takes
// what is left.
func TestUvarintAndRest(t *testing.T) {
	var b []byte
	vals := []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1}
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, "tail"...)
	r := NewReader(b)
	for _, v := range vals {
		if got := r.Uvarint(); got != v {
			t.Fatalf("uvarint %d read back as %d", v, got)
		}
	}
	if rest := r.Rest(); string(rest) != "tail" || r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("rest %q, err %v, %d remaining", rest, r.Err(), r.Remaining())
	}
	if rest := r.Rest(); rest == nil || len(rest) != 0 {
		t.Fatalf("rest of an exhausted reader is %v, want empty", rest)
	}
	if r := NewReader([]byte{0x80, 0x80}); r.Uvarint() != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("cut varint: %v", r.Err())
	}
	if r := NewReader(bytes.Repeat([]byte{0xff}, 11)); r.Uvarint() != 0 || !errors.Is(r.Err(), ErrVarint) {
		t.Fatalf("overlong varint: %v", r.Err())
	}
}
