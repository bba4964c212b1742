package recovery

// The free-space audit: an independent oracle over the stable log's
// space-management records. The persistent free-space map is replayed by
// ordinary redo like any other page state, but its correctness argument
// is global — a page must alternate strictly between allocated and free
// across the whole history, or recycling hands one page to two owners
// (double allocation) or resurrects freed state. AuditSpace replays the
// alloc/free records (updates AND the CLRs undo appends) against a shadow
// model that enforces exactly that alternation, independent of the meta
// page's own redo path; CheckSpace then closes the loop by comparing the
// shadow's final state with the free-space map recovery actually rebuilt.
// The serial-vs-parallel equivalence test and the torture harness run
// both after every restart.

import (
	"fmt"
	"sort"

	"repro/internal/storage"
	"repro/internal/wal"
)

// spaceShadow models one store's space state during the audit replay.
type spaceShadow struct {
	next   uint64
	free   map[uint64]bool
	seeded bool // formatted, or seeded from a checkpoint snapshot
}

// seededShadow starts a shadow from a known space state.
func seededShadow(si SpaceImage) *spaceShadow {
	sh := &spaceShadow{next: si.Next, free: make(map[uint64]bool, len(si.Free)), seeded: true}
	for _, pid := range si.Free {
		sh.free[pid] = true
	}
	return sh
}

func (s *spaceShadow) applyLoose(kind wal.Kind, pid uint64) {
	// Tolerant replay for the fuzzy checkpoint window: the record may
	// already be reflected in the snapshot, so apply idempotently.
	switch kind {
	case storage.KindMetaAlloc:
		delete(s.free, pid)
		if pid >= s.next {
			s.next = pid + 1
		}
	case storage.KindMetaFree:
		s.free[pid] = true
	}
}

func (s *spaceShadow) applyStrict(store uint32, lsn wal.LSN, kind wal.Kind, pid uint64) error {
	switch kind {
	case storage.KindMetaAlloc:
		switch {
		case s.free[pid]:
			delete(s.free, pid)
		case pid == s.next:
			s.next = pid + 1
		default:
			return fmt.Errorf("recovery: space audit: store %d lsn %d allocates page %d while it is allocated (next %d)",
				store, lsn, pid, s.next)
		}
	case storage.KindMetaFree:
		if pid >= s.next || s.free[pid] || pid == uint64(storage.MetaPage) {
			return fmt.Errorf("recovery: space audit: store %d lsn %d frees page %d which is not allocated (next %d, free %v)",
				store, lsn, pid, s.next, s.free[pid])
		}
		s.free[pid] = true
	}
	return nil
}

// AuditSpace scans the image's space records in LSN order and returns the
// final shadow state per store, or the first alloc/free ordering
// violation. When the image carries a checkpoint with a space snapshot,
// the shadow seeds from it and the scan starts at the checkpoint's
// StartLSN (the fuzzy window up to the checkpoint record replays
// tolerantly); otherwise the scan covers the whole image, which must then
// begin with the stores' format records.
func AuditSpace(img *wal.Reader) (map[uint32]SpaceImage, error) {
	shadows := make(map[uint32]*spaceShadow)
	scanFrom := wal.LSN(wal.NilLSN)
	strictFrom := wal.LSN(wal.NilLSN)

	if ckpt := img.CheckpointLSN(); ckpt != wal.NilLSN {
		rec, err := img.Read(ckpt)
		if err == nil && rec.Type == wal.RecCheckpoint {
			if c, err := decodeCheckpoint(rec.Payload); err == nil && c.Space != nil {
				for store, si := range c.Space {
					shadows[store] = seededShadow(si)
				}
				scanFrom = ckpt
				if c.StartLSN != wal.NilLSN && c.StartLSN < scanFrom {
					scanFrom = c.StartLSN
				}
				strictFrom = ckpt + 1 // past the checkpoint record itself
			}
		}
	}

	if err := scanSpace(shadows, img, scanFrom, strictFrom); err != nil {
		return nil, err
	}
	return spaceImages(shadows), nil
}

// AuditSpaceTail continues an audit past the image it was taken over:
// shadow is the state AuditSpace reached at from, the end of that image,
// and tail holds the log from there on — all a restart's undo pass leaves
// in memory once the engine has released the replayed log. Every space
// record of tail at or above from is applied strictly.
func AuditSpaceTail(shadow map[uint32]SpaceImage, tail *wal.Reader, from wal.LSN) (map[uint32]SpaceImage, error) {
	if tail.StartLSN() > from {
		return nil, fmt.Errorf("recovery: space audit: log released up to %d, past the audited prefix's end %d", tail.StartLSN(), from)
	}
	shadows := make(map[uint32]*spaceShadow, len(shadow))
	for store, si := range shadow {
		shadows[store] = seededShadow(si)
	}
	if err := scanSpace(shadows, tail, from, from); err != nil {
		return nil, err
	}
	return spaceImages(shadows), nil
}

// scanSpace applies img's space records from scanFrom on to shadows:
// tolerantly below strictFrom, strictly from there.
func scanSpace(shadows map[uint32]*spaceShadow, img *wal.Reader, scanFrom, strictFrom wal.LSN) error {
	var verr error
	img.Scan(scanFrom, func(rec wal.Record) bool {
		if rec.Type != wal.RecUpdate && rec.Type != wal.RecCLR {
			return true
		}
		if rec.PageID != uint64(storage.MetaPage) {
			return true
		}
		switch rec.Kind {
		case storage.KindMetaFormat:
			shadows[rec.StoreID] = &spaceShadow{
				next:   uint64(storage.MetaPage) + 1,
				free:   make(map[uint64]bool),
				seeded: true,
			}
			return true
		case storage.KindMetaAlloc, storage.KindMetaFree:
		default:
			return true
		}
		pid, err := storage.DecodePID(rec.Payload)
		if err != nil {
			verr = fmt.Errorf("recovery: space audit: store %d lsn %d: %w", rec.StoreID, rec.LSN, err)
			return false
		}
		sh := shadows[rec.StoreID]
		if sh == nil {
			// Space records for a store with no format record and no
			// checkpoint snapshot: the image predates this store's
			// coverage, so track it tolerantly (nothing to assert against).
			sh = &spaceShadow{free: make(map[uint64]bool)}
			shadows[rec.StoreID] = sh
		}
		if !sh.seeded || rec.LSN < strictFrom {
			sh.applyLoose(rec.Kind, uint64(pid))
			return true
		}
		if err := sh.applyStrict(rec.StoreID, rec.LSN, rec.Kind, uint64(pid)); err != nil {
			verr = err
			return false
		}
		return true
	})
	return verr
}

// spaceImages is the final state of every seeded shadow.
func spaceImages(shadows map[uint32]*spaceShadow) map[uint32]SpaceImage {
	out := make(map[uint32]SpaceImage, len(shadows))
	for store, sh := range shadows {
		if !sh.seeded {
			continue // partial view; final state is not meaningful
		}
		img := SpaceImage{Next: sh.next, Free: make([]uint64, 0, len(sh.free))}
		for pid := range sh.free {
			img.Free = append(img.Free, pid)
		}
		sort.Slice(img.Free, func(i, j int) bool { return img.Free[i] < img.Free[j] })
		out[store] = img
	}
	return out
}

// CheckSpace compares an audit's final shadow state against the
// free-space map recovery actually rebuilt in each pool's meta page: the
// high-water marks must match and the free lists must hold the same page
// set. Pools without a meta page (or absent from the shadow) are skipped.
func CheckSpace(shadow map[uint32]SpaceImage, pools ...*storage.Pool) error {
	for _, p := range pools {
		want, ok := shadow[p.StoreID]
		if !ok {
			continue
		}
		next, free, ok := p.SpaceSnapshot()
		if !ok {
			return fmt.Errorf("recovery: space audit: store %d has space history but no recovered meta page", p.StoreID)
		}
		if uint64(next) != want.Next {
			return fmt.Errorf("recovery: space audit: store %d recovered high-water %d, shadow says %d", p.StoreID, next, want.Next)
		}
		if len(free) != len(want.Free) {
			return fmt.Errorf("recovery: space audit: store %d recovered %d free pages, shadow says %d", p.StoreID, len(free), len(want.Free))
		}
		set := make(map[uint64]bool, len(free))
		for _, pid := range free {
			set[uint64(pid)] = true
		}
		for _, pid := range want.Free {
			if !set[pid] {
				return fmt.Errorf("recovery: space audit: store %d free list is missing page %d", p.StoreID, pid)
			}
		}
	}
	return nil
}
