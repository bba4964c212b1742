package recovery

import (
	"errors"
	"testing"

	"repro/internal/wal"
)

// FuzzDecodeCheckpoint: the payload of a checkpoint record — transaction
// table, dirty page tables, space images, horizon fields — decodes or fails
// with ErrCorruptCheckpoint. It does not panic, what decodes holds no more
// rows than the input has bytes (no table sized by a count the input only
// claims), and restart's consumer of it, loadCheckpoint's copy into the
// analysis tables, takes it as it is.
func FuzzDecodeCheckpoint(f *testing.F) {
	full, err := encodeCheckpoint(&Checkpoint{
		StartLSN: 4096,
		ATT:      []AttEntry{{ID: 7, LastLSN: 5000, FirstLSN: 4100}, {ID: 9, LastLSN: 5100, System: true}},
		DPT:      map[uint32]map[uint64]wal.LSN{1: {2: 4200, 3: 4300}, 2: {}},
		MaxTxnID: 9,
		ClockHW:  77,
		Space:    map[uint32]SpaceImage{1: {Next: 12, Free: []uint64{4, 8}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, _ := encodeCheckpoint(&Checkpoint{})
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := decodeCheckpoint(b)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("decode fails with %v, not ErrCorruptCheckpoint", err)
			}
			return
		}
		rows := len(c.ATT)
		att := map[wal.TxnID]*attState{}
		for _, e := range c.ATT {
			att[e.ID] = &attState{lastLSN: e.LastLSN, system: e.System}
		}
		for _, pages := range c.DPT {
			rows += 1 + len(pages)
		}
		for _, s := range c.Space {
			rows += 1 + len(s.Free)
		}
		if rows > len(b) {
			t.Fatalf("%d rows out of %d bytes", rows, len(b))
		}
		if _, err := encodeCheckpoint(c); err != nil {
			t.Fatalf("what decoded does not encode: %v", err)
		}
	})
}
