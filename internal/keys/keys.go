// Package keys provides order-preserving key encodings and bound arithmetic
// shared by every access method in this repository.
//
// A Key is an opaque byte string compared lexicographically. The encodings
// below are order-preserving: for two values a < b of the same type,
// Compare(Encode(a), Encode(b)) < 0. Keys encoded from different helper
// types should not be mixed within one index.
package keys

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Key is an opaque, lexicographically ordered byte string.
type Key []byte

// Compare returns -1, 0, or +1 as a is less than, equal to, or greater
// than b.
func Compare(a, b Key) int { return bytes.Compare(a, b) }

// Equal reports whether a and b are byte-wise identical.
func Equal(a, b Key) bool { return bytes.Equal(a, b) }

// Clone returns a copy of k that does not alias its storage. Cloning a nil
// key returns nil.
func Clone(k Key) Key {
	if k == nil {
		return nil
	}
	c := make(Key, len(k))
	copy(c, k)
	return c
}

// Uint64 encodes v as an 8-byte big-endian key, which preserves numeric
// order under lexicographic comparison.
func Uint64(v uint64) Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// ToUint64 decodes a key produced by Uint64. It panics if k is not exactly
// 8 bytes, since that indicates keys of mixed encodings in one index.
func ToUint64(k Key) uint64 {
	if len(k) != 8 {
		panic(fmt.Sprintf("keys: ToUint64 on %d-byte key", len(k)))
	}
	return binary.BigEndian.Uint64(k)
}

// String encodes s as a key. Plain byte strings already compare
// lexicographically, so the encoding is the identity copy.
func String(s string) Key { return Key(s) }

// Bound is a one-sided boundary of a key interval. The zero Bound is the
// interval's "unbounded" side: -infinity for a low bound, +infinity for a
// high bound, depending on context.
type Bound struct {
	// Key is the boundary value; ignored when Unbounded is true.
	Key Key
	// Unbounded marks an infinite bound.
	Unbounded bool
}

// Inf is the unbounded boundary.
var Inf = Bound{Unbounded: true}

// At returns a finite bound at k.
func At(k Key) Bound { return Bound{Key: Clone(k)} }

// LessHigh reports whether high bound a is strictly less than high bound b,
// treating Unbounded as +infinity.
func (a Bound) LessHigh(b Bound) bool {
	switch {
	case a.Unbounded:
		return false
	case b.Unbounded:
		return true
	default:
		return Compare(a.Key, b.Key) < 0
	}
}

// ContainsBelow reports whether key k lies strictly below this bound when
// the bound is used as an exclusive upper limit (Unbounded means +infinity).
func (a Bound) ContainsBelow(k Key) bool {
	return a.Unbounded || Compare(k, a.Key) < 0
}

// Interval is the half-open key interval [Low, High). A node's
// responsibility and its directly-contained space are both Intervals.
type Interval struct {
	Low  Key   // inclusive; nil means -infinity
	High Bound // exclusive; Unbounded means +infinity
}

// EntireSpace is the interval covering every key.
var EntireSpace = Interval{Low: nil, High: Inf}

// Contains reports whether k lies in the interval.
func (iv Interval) Contains(k Key) bool {
	if iv.Low != nil && Compare(k, iv.Low) < 0 {
		return false
	}
	return iv.High.ContainsBelow(k)
}

// Empty reports whether the interval contains no keys.
func (iv Interval) Empty() bool {
	if iv.High.Unbounded {
		return false
	}
	// A nil Low is -infinity, equivalent to the minimum (empty) key.
	return Compare(iv.Low, iv.High.Key) >= 0
}

// String renders the interval for diagnostics.
func (iv Interval) String() string {
	lo := "-inf"
	if iv.Low != nil {
		lo = fmt.Sprintf("%x", []byte(iv.Low))
	}
	hi := "+inf"
	if !iv.High.Unbounded {
		hi = fmt.Sprintf("%x", []byte(iv.High.Key))
	}
	return "[" + lo + ", " + hi + ")"
}
