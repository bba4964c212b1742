package enc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestDeltaRoundTrip: the delta AppendXOR writes between two values decodes,
// re-encodes to the same bytes, turns the old value into the new one and,
// inverted, the new one back — for values that grow, shrink, keep their
// length, share nothing or differ in scattered bytes and zero gaps of every
// length around MaxRunZeros, short and long.
func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		size := 120
		if i%50 == 0 {
			size = 600 // past AppendXOR's stack buffer
		}
		old := make([]byte, rng.Intn(size))
		rng.Read(old)
		var new []byte
		switch i % 3 {
		case 0: // scattered changes
			new = append(bytes.Clone(old), make([]byte, rng.Intn(20))...)
			new = new[:rng.Intn(len(new)+1)]
			for j := rng.Intn(8); j > 0 && len(new) > 0; j-- {
				at := rng.Intn(len(new))
				for g := 0; g <= rng.Intn(2*MaxRunZeros+2) && at+g < len(new); g++ {
					new[at+g] ^= byte(rng.Intn(2)) // some bytes stay: zero gaps
				}
			}
		case 1: // unrelated
			new = make([]byte, rng.Intn(size))
			rng.Read(new)
		default: // equal
			new = bytes.Clone(old)
		}
		p := AppendXOR(nil, old, new)
		if len(p) > MaxXORLen(len(old), len(new)) {
			t.Fatalf("%x -> %x: %d bytes, over MaxXORLen %d", old, new, len(p), MaxXORLen(len(old), len(new)))
		}
		d, err := DecodeDelta(p, 1<<20)
		if err != nil {
			t.Fatalf("%x -> %x: %x does not decode: %v", old, new, p, err)
		}
		if again := AppendDelta(nil, d); !bytes.Equal(again, p) {
			t.Fatalf("%x re-encodes as %x", p, again)
		}
		if got, err := d.Apply(nil, old); err != nil || !bytes.Equal(got, new) {
			t.Fatalf("%x applied to %x makes %x (%v), want %x", p, old, got, err, new)
		}
		if got, err := d.Inverse().Apply(nil, new); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("%x inverted, applied to %x, makes %x (%v), want %x", p, new, got, err, old)
		}
		if _, err := d.Apply(nil, append(bytes.Clone(old), 0)); err == nil {
			t.Fatalf("%x applied to a value of another length", p)
		}
	}
	if p := AppendXOR(nil, []byte("abc"), []byte("abc")); !bytes.Equal(p, []byte{3, 3}) {
		t.Fatalf("an unchanged value's delta is %x, want its two lengths", p)
	}
	if _, err := DecodeDelta([]byte{4, 4, 0, 2, 1, 0}, 1<<20); err == nil {
		t.Fatal("a run that ends at a zero byte decoded")
	}
}

// TestMaxXORLenBounds: MaxXORLen holds what AppendXOR writes for the
// value that makes the most runs — one nonzero byte, then MaxRunZeros+1
// zero bytes, and again — and for one long run, at every length up to
// 1 000 bytes, where the uvarints grow to two bytes.
func TestMaxXORLenBounds(t *testing.T) {
	for n := 0; n <= 1000; n++ {
		sparse, dense := make([]byte, n), bytes.Repeat([]byte{1}, n)
		for i := 0; i < n; i += MaxRunZeros + 2 {
			sparse[i] = 1
		}
		for _, x := range [][]byte{sparse, dense} {
			if got, bound := len(AppendXOR(nil, nil, x)), MaxXORLen(0, n); got > bound {
				t.Fatalf("%d bytes: AppendXOR writes %d, MaxXORLen is %d", n, got, bound)
			}
		}
	}
}

// BenchmarkDeltaApply: a delta of the repository benchmark's update (ten
// one-byte runs and one of five) and one that rewrites a whole 100-byte
// value, so one long run. decode+apply is what redo did before ApplyDelta
// (DecodeDelta's checking walk, then Apply's into a copy), one-walk is
// ApplyDelta in place; both start from the encoded delta.
func BenchmarkDeltaApply(b *testing.B) {
	value := func(seq uint64) []byte {
		v := binary.BigEndian.AppendUint64(nil, 77)
		v = binary.BigEndian.AppendUint64(v, seq)
		for i := 0; i < 10; i++ {
			v = binary.BigEndian.AppendUint64(v, seq^77)
		}
		return binary.BigEndian.AppendUint32(v, uint32(seq*2654435761))
	}
	whole := bytes.Repeat([]byte{0xa5}, 100)
	for _, c := range []struct {
		name     string
		old, new []byte
	}{
		{"update", value(1000), value(1001)},
		{"whole", make([]byte, 100), whole},
	} {
		enc := AppendXOR(nil, c.old, c.new)
		d, err := DecodeDelta(enc, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			var scratch [256]byte
			for i := 0; i < b.N; i++ {
				if _, err := d.Apply(scratch[:0], c.old); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode+apply", func(b *testing.B) {
			var scratch [256]byte
			for i := 0; i < b.N; i++ {
				d, err := DecodeDelta(enc, 1<<20)
				if err == nil {
					_, err = d.Apply(scratch[:0], c.old)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/one-walk", func(b *testing.B) {
			v := bytes.Clone(c.old)
			for i := 0; i < b.N; i++ {
				// Applied twice, the delta turns v back: v alternates.
				if _, err := ApplyDelta(nil, v, enc, 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
