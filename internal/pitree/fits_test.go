package pitree

import (
	"errors"
	"math"
	"testing"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestFitsAndFormatRefusal: Fits and Admit measure against the page's
// room — the slot's payload less the image frame — and format refuses an
// image larger than the page with ErrRecordTooLarge, logging nothing of
// it.
func TestFitsAndFormatRefusal(t *testing.T) {
	ty := newToy(t, false, false)
	k := ty.kern
	if want := storage.DefaultSlotSize - 40 - 9; k.Room() != want {
		t.Fatalf("room %d, want %d", k.Room(), want)
	}
	leaf := ty.node(t, toyLeafA)
	free := k.Room() - ty.EncodedSize(leaf)
	if !k.Fits(leaf, free) || k.Fits(leaf, free+1) {
		t.Fatalf("Fits disagrees with the %d bytes free", free)
	}
	if err := k.Admit(k.Room() / 4); err != nil {
		t.Fatalf("Admit at the limit: %v", err)
	}
	if err := k.Admit(k.Room()/4 + 1); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("Admit past the limit: %v", err)
	}

	big := &toyNode{level: 1, high: math.MaxInt}
	for len(toyKinds.Image(big)) <= k.Room() {
		big.seps = append(big.seps, len(big.seps))
		big.kids = append(big.kids, toyLeafA)
	}
	from := ty.log.EndLSN()
	o := k.NewOp(nil)
	err := o.Atomic(func(aa *txn.Txn) error { return k.format(o, aa, toySplitPage, big) })
	o.Done()
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("format of a %d-byte image: %v", len(toyKinds.Image(big)), err)
	}
	for _, r := range ty.records(from) {
		if r.Type == wal.RecUpdate {
			t.Fatalf("the refused format logged kind %d on page %d", r.Kind, r.PageID)
		}
	}
}
