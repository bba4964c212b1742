package enc

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// A Delta turns one value into another (DESIGN.md §16): the old and new
// lengths as uvarints, then old ⊕ new — the shorter value zero-padded — as
// runs, each a uvarint gap of zero bytes skipped since the previous run (or
// the start), a uvarint length and that many bytes. A run starts and ends at
// a nonzero byte, and a gap of at most MaxRunZeros zero bytes, no longer
// than a run's header, stays inside its run. XOR is its own inverse: the
// delta with its two lengths swapped turns the new value back into the old.
// A delta applied twice corrupts the value, so a log record that carries
// one is applied only behind the pageLSN test.
type Delta struct {
	// From and To are the lengths of the value the delta applies to and of
	// the value it makes.
	From, To int
	// Runs is the encoded runs of old ⊕ new; a decoded delta's aliases its
	// input.
	Runs []byte
}

// MaxRunZeros is the longest zero gap kept inside a run: two header bytes
// at least would cost as much.
const MaxRunZeros = 2

// ErrBadDelta reports a delta whose lengths or runs do not hold together.
var ErrBadDelta = errors.New("enc: malformed value delta")

// AppendDelta appends d to dst.
func AppendDelta(dst []byte, d Delta) []byte {
	dst = binary.AppendUvarint(dst, uint64(d.From))
	dst = binary.AppendUvarint(dst, uint64(d.To))
	return append(dst, d.Runs...)
}

// AppendXOR appends the delta that turns old into new.
func AppendXOR(dst, old, new []byte) []byte {
	dst = AppendDelta(dst, Delta{From: len(old), To: len(new)})
	// x is old ⊕ new, the shorter value zero-padded: past it, the longer
	// one's tail.
	var scratch [256]byte
	n, keep := max(len(old), len(new)), min(len(old), len(new))
	x := scratch[:]
	if n > len(scratch) {
		x = make([]byte, n)
	}
	x = x[:n]
	subtle.XORBytes(x, old[:keep], new[:keep])
	copy(x[keep:], old[keep:])
	copy(x[keep:], new[keep:])
	last := 0
	for i := 0; i < n; i++ {
		if x[i] == 0 {
			continue
		}
		end := i + 1 // one past the run's last nonzero byte
		for j := end; j < n && j-end <= MaxRunZeros; j++ {
			if x[j] != 0 {
				end = j + 1
			}
		}
		dst = binary.AppendUvarint(dst, uint64(i-last))
		dst = binary.AppendUvarint(dst, uint64(end-i))
		dst = append(dst, x[i:end]...)
		i, last = end, end
	}
	return dst
}

// MaxXORLen bounds what AppendXOR appends for values of from and to bytes:
// both lengths, then runs over at most n = max(from, to) bytes, at most
// (n+MaxRunZeros+1)/(MaxRunZeros+2) of them since a run is at least one
// byte and more than MaxRunZeros zero bytes lie between two, each with a
// gap and a length of at most n.
func MaxXORLen(from, to int) int {
	n := max(from, to)
	l := (bits.Len(uint(n|1)) + 6) / 7 // bytes of a uvarint of at most n
	return 2*l + n + 2*l*((n+MaxRunZeros+1)/(MaxRunZeros+2))
}

// DecodeDelta decodes a delta that takes all of b. It accepts only what
// AppendXOR writes, so a delta it accepts re-encodes to the same bytes:
// minimal uvarints, lengths of at most maxLen, and runs that start and end
// at a nonzero byte, hold no longer zero gap than MaxRunZeros, lie apart by
// more than that and end within the longer value. Each run is bounded by
// that length before anything is sized by it.
func DecodeDelta(b []byte, maxLen uint64) (Delta, error) {
	from, p, ok1 := MinUvarint(b, maxLen)
	to, p, ok2 := MinUvarint(p, maxLen)
	d := Delta{From: int(from), To: int(to), Runs: p}
	span, ok := max(from, to), ok1 && ok2
	for at, first := uint64(0), true; ok && len(p) > 0; first = false {
		gap, q, okGap := MinUvarint(p, span-at)
		n, q, okLen := MinUvarint(q, span-at-gap)
		ok = okGap && okLen && n > 0 && n <= uint64(len(q)) && (first || gap > MaxRunZeros) && compactRun(q[:n])
		if ok {
			at, p = at+gap+n, q[n:]
		}
	}
	if !ok {
		return Delta{}, fmt.Errorf("%w: lengths %d -> %d, runs %x", ErrBadDelta, from, to, d.Runs)
	}
	return d, nil
}

// MinUvarint reads a minimal uvarint of at most max off the front of b.
func MinUvarint(b []byte, max uint64) (uint64, []byte, bool) {
	if len(b) > 0 && b[0] < 0x80 && uint64(b[0]) <= max { // one byte, as most of a delta's are
		return uint64(b[0]), b[1:], true
	}
	v, n := binary.Uvarint(b)
	if n <= 0 || v > max || (n > 1 && b[n-1] == 0) {
		return 0, b, false
	}
	return v, b[n:], true
}

// compactRun reports whether run starts and ends at a nonzero byte and
// holds no zero gap longer than MaxRunZeros.
func compactRun(run []byte) bool {
	zeros := 0
	for _, c := range run {
		if c != 0 {
			zeros = 0
		} else if zeros++; zeros > MaxRunZeros {
			return false
		}
	}
	return run[0] != 0 && zeros == 0
}

// Inverse is the delta that undoes d.
func (d Delta) Inverse() Delta {
	d.From, d.To = d.To, d.From
	return d
}

// Apply appends to dst[:0] the value d makes of cur, which must be the
// length of the value d applies to. d is one DecodeDelta accepted.
func (d Delta) Apply(dst, cur []byte) ([]byte, error) {
	if len(cur) != d.From {
		return nil, fmt.Errorf("%w: the value holds %d bytes, the delta applies to %d", ErrBadDelta, len(cur), d.From)
	}
	keep := min(d.From, d.To)
	dst = append(append(dst[:0], cur[:keep]...), make([]byte, d.To-keep)...)
	xorRuns(dst, d.Runs)
	return dst, nil
}

// ApplyDelta is DecodeDelta and Delta.Apply in one walk of the runs: it
// makes every check DecodeDelta makes of the delta encoded in b, and applies
// each run as it passes it. cur must hold the delta's From bytes. A delta
// that keeps the value's length is applied to cur in place, and the result
// is cur; any other is appended to dst[:0]. A delta refused leaves cur as it
// was: the runs already applied are applied once more, which XOR undoes.
func ApplyDelta(dst, cur, b []byte, maxLen uint64) ([]byte, error) {
	from, p, ok1 := MinUvarint(b, maxLen)
	to, p, ok2 := MinUvarint(p, maxLen)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%w: lengths %d -> %d, runs %x", ErrBadDelta, from, to, p)
	}
	if uint64(len(cur)) != from {
		return nil, fmt.Errorf("%w: the value holds %d bytes, the delta applies to %d", ErrBadDelta, len(cur), from)
	}
	out := cur
	if from != to {
		keep := min(from, to)
		out = append(append(dst[:0], cur[:keep]...), make([]byte, to-keep)...)
	}
	runs, span := p, max(from, to)
	for at, first := uint64(0), true; len(p) > 0; first = false {
		gap, q, okGap := MinUvarint(p, span-at)
		n, q, okLen := MinUvarint(q, span-at-gap)
		if !okGap || !okLen || n == 0 || n > uint64(len(q)) || (!first && gap <= MaxRunZeros) || !compactRun(q[:n]) {
			if from == to {
				xorRuns(out, runs[:len(runs)-len(p)])
			}
			return nil, fmt.Errorf("%w: lengths %d -> %d, runs %x", ErrBadDelta, from, to, runs)
		}
		// A shrinking delta's runs may reach past the new value: old's
		// tail XOR zero, which nothing keeps.
		if at += gap; at < to {
			xorRun(out[at:], q[:min(n, to-at)])
		}
		at, p = at+n, q[n:]
	}
	return out, nil
}

// xorRuns applies runs, which DecodeDelta or ApplyDelta checked, to v. A
// shrinking delta's runs may reach past v: old's tail XOR zero, which
// nothing keeps.
func xorRuns(v, runs []byte) {
	for at, p := 0, runs; len(p) > 0; {
		gap, n := binary.Uvarint(p)
		p = p[n:]
		l, n := binary.Uvarint(p)
		p = p[n:]
		at += int(gap)
		if at < len(v) {
			xorRun(v[at:], p[:min(int(l), len(v)-at)])
		}
		at, p = at+int(l), p[l:]
	}
}

// xorRun XORs run into the front of v, which is at least as long. A
// plain loop: a delta's runs are mostly a byte or a few (DESIGN.md §16).
func xorRun(v, run []byte) {
	for i, c := range run {
		v[i] ^= c
	}
}
