package storage

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Single-page redo. Every record of a page names the page's previous one
// (wal.Record.PagePrev), so a page's history since any state it held is a
// chain in the log, back from its newest record. Repeating history on one
// page is walking that chain back to the state the frame holds and applying
// it forward. Two callers do: a fetch of an elided page (replayOnce), from
// its stable image, and restart redo (RedoChain), per dirty page.

// ErrBrokenChain reports a page whose log chain does not lead back to the
// state its frame holds (its stable image) or to a record that carries a
// whole page image, or does so in other than the records counted for it.
// An elided page's fetch that finds it fails and the page stays elided; a
// restart that finds it fails.
var ErrBrokenChain = errors.New("storage: broken page chain")

// ChainRead reads back the record at lsn for a chain walk. It may append
// the bytes the record's payload aliases to buf, and returns buf as
// extended; *wal.Log's ReadAppend is one.
type ChainRead func(lsn wal.LSN, buf []byte) (wal.Record, []byte, error)

// chainWalk says where a page's chain starts and what its walk must find.
type chainWalk struct {
	read  ChainRead
	last  wal.LSN // the page's newest record
	limit int     // the most records the walk may take
	exact bool    // it must take all limit to reach the frame's pageLSN
	image bool    // the frame holds no page: the walk must reach a page image
	probe bool    // FPPoolReplay is checked before each record applied
}

// ChainScratch is what a walk reads its chain into, kept between walks:
// the records, newest first, each beside its kind's handler, and the
// buffer of the frames their payloads alias. An elided page's fetch takes
// one from its pool (Pool.chainScratch); a restart redo worker keeps its
// own for all its pages, so that what a long chain grew it to is garbage
// once restart ends.
type ChainScratch struct {
	links []chainLink
	buf   []byte
}

type chainLink struct {
	rec wal.Record
	h   Handler
}

// redoChain brings the X-latched frame f from the state it holds, at its
// pageLSN, to w.last. It walks the page's chain back from w.last, newest
// record first, reading each through w.read and looking up each record's
// handler once. The walk stops at f's pageLSN, or at a record that carries
// a whole page image (full: what f holds is not needed); then the records
// walked are applied oldest first through the pageLSN guard, and each must
// apply. Anything else — a record of another page, a link that passes the
// pageLSN or ends without reaching it, a chain longer than w.limit or, with
// w.exact, shorter — is ErrBrokenChain, found before anything is applied.
// A failure while applying leaves f part-way, for the caller to discard.
// It returns how many records it applied.
//
// The payloads may alias cs's buffer, which the next walk writes over, or
// the caller's log image: every Redo handler copies what it keeps of a
// payload.
func (p *Pool) redoChain(f *Frame, cs *ChainScratch, w chainWalk) (n int, full bool, err error) {
	cs.links, cs.buf = cs.links[:0], cs.buf[:0]
	stable := f.PageLSN()
	for lsn := w.last; lsn != stable && !full; {
		if lsn < stable || lsn == wal.NilLSN || len(cs.links) == w.limit {
			return 0, false, fmt.Errorf("%w: page %d, walking back from %d, reached %d without its pageLSN %d",
				ErrBrokenChain, f.ID, w.last, lsn, stable)
		}
		var rec wal.Record
		rec, cs.buf, err = w.read(lsn, cs.buf)
		if err != nil {
			return 0, false, fmt.Errorf("page %d chain: %w", f.ID, err)
		}
		if rec.StoreID != p.StoreID || PageID(rec.PageID) != f.ID {
			return 0, false, fmt.Errorf("%w: page %d chain reaches record %d of store %d page %d",
				ErrBrokenChain, f.ID, lsn, rec.StoreID, rec.PageID)
		}
		var h Handler
		if h, err = p.reg.Handler(rec.Kind); err != nil {
			return 0, false, err
		}
		cs.links = append(cs.links, chainLink{rec, h})
		full = h.Image
		lsn = rec.PagePrev
	}
	switch {
	case full:
	case w.image:
		return 0, false, fmt.Errorf("%w: page %d has no stable image and its chain from %d reaches no page image",
			ErrBrokenChain, f.ID, w.last)
	case w.exact && len(cs.links) != w.limit:
		// A record that skipped its predecessor: two records logged against
		// the page before it was marked once.
		return 0, false, fmt.Errorf("%w: page %d reaches its pageLSN %d in %d records, not the %d it counted",
			ErrBrokenChain, f.ID, stable, len(cs.links), w.limit)
	}
	for i := len(cs.links) - 1; i >= 0; i-- {
		l := &cs.links[i]
		if w.probe {
			if err := p.inj.Check(FPPoolReplay); err != nil {
				return 0, false, err
			}
		}
		applied, err := redoWith(f, l.h, &l.rec)
		if err == nil && !applied {
			err = fmt.Errorf("%w: page %d record %d at or below pageLSN %d", ErrBrokenChain, f.ID, l.rec.LSN, f.PageLSN())
		}
		if err != nil {
			return 0, false, err
		}
	}
	return len(cs.links), full, nil
}

// RedoChain repeats page pid's history at restart, up to last, its newest
// record in the log: it fetches the page — or creates it, when it never
// reached the disk — and under its X latch runs redoChain from the pageLSN
// the page holds, reading the records through read into cs. n is how many
// of the page's records lie at or past recLSN, where the dirty page table
// says the page was first dirtied: the records the serial redo scan
// applies to it. A pageLSN below recLSN must be reached in exactly n
// records; one at or past it (the page was written after recLSN) in
// fewer. A page that already holds last applies nothing. full reports a
// walk that started from a record carrying a whole page image.
func (p *Pool) RedoChain(cs *ChainScratch, pid PageID, read ChainRead, last, recLSN wal.LSN, n int) (full bool, err error) {
	f, err := p.FetchOrCreate(pid)
	if err != nil {
		return false, err
	}
	defer p.Unpin(f)
	f.Latch.AcquireX()
	defer f.Latch.ReleaseX()
	stable := f.PageLSN()
	if stable >= last {
		return false, nil
	}
	_, full, err = p.redoChain(f, cs, chainWalk{read: read, last: last, limit: n, exact: stable < recLSN})
	return full, err
}
