package keys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUint64OrderPreserving(t *testing.T) {
	f := func(a, b uint64) bool {
		cmp := Compare(Uint64(a), Uint64(b))
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool { return ToUint64(Uint64(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Low: Uint64(10), High: At(Uint64(20))}
	for _, tc := range []struct {
		k    uint64
		want bool
	}{{9, false}, {10, true}, {15, true}, {19, true}, {20, false}, {25, false}} {
		if got := iv.Contains(Uint64(tc.k)); got != tc.want {
			t.Errorf("Contains(%d) = %v, want %v", tc.k, got, tc.want)
		}
	}
	if !EntireSpace.Contains(Uint64(0)) || !EntireSpace.Contains(Uint64(math.MaxUint64)) {
		t.Fatal("EntireSpace must contain everything")
	}
}

func TestBounds(t *testing.T) {
	if !At(Uint64(5)).LessHigh(Inf) {
		t.Fatal("finite < +inf")
	}
	if Inf.LessHigh(At(Uint64(5))) {
		t.Fatal("+inf not < finite")
	}
	if Inf.LessHigh(Inf) {
		t.Fatal("+inf not < +inf")
	}
	if !Inf.ContainsBelow(Uint64(math.MaxUint64)) {
		t.Fatal("+inf bound contains all")
	}
}

func TestIntervalEmpty(t *testing.T) {
	if (Interval{Low: Uint64(5), High: At(Uint64(5))}).Empty() != true {
		t.Fatal("[5,5) is empty")
	}
	if (Interval{Low: Uint64(5), High: At(Uint64(6))}).Empty() {
		t.Fatal("[5,6) is not empty")
	}
	if EntireSpace.Empty() {
		t.Fatal("entire space not empty")
	}
}

func TestCloneIndependence(t *testing.T) {
	k := Uint64(42)
	c := Clone(k)
	c[0] = 0xFF
	if Equal(k, c) {
		t.Fatal("clone aliases original")
	}
	if Clone(nil) != nil {
		t.Fatal("clone of nil must be nil")
	}
}
