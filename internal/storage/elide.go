package storage

import (
	"errors"
	"time"

	"repro/internal/fault"
	"repro/internal/wal"
)

// Write elision (DESIGN.md §18). Recovery needs only the write-ahead rule
// and page state identifiers: a page's records must be stable before the
// page is, but nothing requires the page to follow soon. So a bounded pool
// that evicts a dirty page whose chain since its stable image is short
// drops the frame instead of writing it, and keeps the page in its dirty
// page table as a compact entry. The next fetch reads the stable image and
// replays the chain — each record names the page's previous one
// (wal.Record.PagePrev) — through the one pageLSN guard. The page is then
// written once, when the write-back rule finds it due, instead of once per
// dirtying.

// maxElideChain bounds the chain an eviction may drop: a victim with more
// records since its stable image is written back as before. Every fetch of
// an elided page replays its chain, one log read and one redo per record,
// so the bound weighs that against one page write (the measurement is in
// DESIGN.md §18).
const maxElideChain = 8

// FPPoolReplay is the failpoint probed before each record a fetch replays
// onto an elided page. A transient fault is retried as a disk read is; any
// other fails the fetch and leaves the page elided.
const FPPoolReplay = "pool.replay"

// elidedPage is the entry of a page an eviction dropped: its pageLSN, its
// recLSN as a distance back from the pageLSN, and the length of its chain
// since the stable image, beside the position of the dirty page table
// entry it took over from the frame (dirtyEntry.pos). 24 bytes.
type elidedPage struct {
	pos   int
	page  wal.LSN
	back  uint32 // page - recLSN
	chain uint32
}

func (e *elidedPage) rec() wal.LSN { return e.page - wal.LSN(e.back) }

// forget drops pid's elided entry, if any, and its dirty page table entry
// unless a replay has taken that over. The entry goes to the shard's spare
// list for the next elision — unless a write-back of the page is in
// flight (writeElided, which holds it outside sh.mu and compares it when
// it ends). Caller holds sh.mu.
func (p *Pool) forget(sh *poolShard, pid PageID) {
	if e, ok := sh.elided[pid]; ok {
		delete(sh.elided, pid)
		p.dirty.leave(&e.pos)
		p.elidedN.Add(-1)
		if _, writing := sh.flushing[pid]; !writing && len(sh.spare) < maxFreeFrames {
			sh.spare = append(sh.spare, e)
		}
	}
}

// elide drops the dirty victim f — detached, unpinned, under sh.mu —
// instead of writing it, when its chain is short enough to replay. It
// reports whether it did; the caller then recycles the frame.
func (p *Pool) elide(sh *poolShard, f *Frame) bool {
	rec, dirty := f.dirtySnapshot()
	n, page := f.chain.Load(), f.PageLSN()
	if p.reg == nil || !dirty || f.Data == nil || n == 0 || n > maxElideChain || page-rec >= 1<<32 {
		return false
	}
	var e *elidedPage
	if k := len(sh.spare); k > 0 {
		e, sh.spare[k-1], sh.spare = sh.spare[k-1], nil, sh.spare[:k-1]
	} else {
		e = new(elidedPage)
	}
	*e = elidedPage{page: page, back: uint32(page - rec), chain: n}
	p.dirty.move(&f.dirtyPos, &e.pos)
	sh.elided[f.ID] = e
	p.elidedN.Add(1)
	p.elisions.Add(1)
	return true
}

// replay rebuilds the elided page e into the loading placeholder f (pinned,
// published, invisible to every other fetcher): the stable image, then the
// chain from it forward through redoChain. On success f is dirty with e's
// recLSN and owns e's dirty page table entry; the caller retires e. On
// failure f is empty and clean again — a half-replayed page is never
// installed — and e keeps its entry. A transient fault restarts the
// replay, as readPage retries a transient read.
func (p *Pool) replay(f *Frame, e *elidedPage) error {
	for attempt := 0; ; attempt++ {
		err := p.replayOnce(f, e)
		if err == nil || !fault.IsTransient(err) || attempt >= diskRetries {
			return err
		}
		time.Sleep(time.Microsecond << attempt)
	}
}

func (p *Pool) replayOnce(f *Frame, e *elidedPage) error {
	stable, data, err := p.readPage(f.ID, wal.NilLSN)
	imaged := err == nil
	if errors.Is(err, ErrPageNotFound) {
		err = nil
	}
	if err != nil {
		return err
	}
	f.Latch.AcquireX()
	defer f.Latch.ReleaseX()
	f.Data = data
	f.recLSN.Store(uint64(e.rec()))
	f.meta.Store(dirtyBit | stable)
	f.chain.Store(0)
	cs, _ := p.chainScratch.Get().(*ChainScratch)
	if cs == nil {
		cs = new(ChainScratch)
	}
	defer p.chainScratch.Put(cs)
	w := chainWalk{read: p.log.ReadAppend, last: e.page, limit: int(e.chain), exact: true, image: !imaged, probe: true}
	n, _, err := p.redoChain(f, cs, w)
	if err != nil {
		f.Data = nil
		f.meta.Store(0)
		f.chain.Store(0)
		return err
	}
	p.dirty.move(&e.pos, &f.dirtyPos)
	p.replays.Add(1)
	p.replayedRecords.Add(int64(n))
	return nil
}

// writeElided writes the elided page pid back without buffering it: it
// rebuilds the page into a frame of its own (replay) and flushes that, one
// page at a time, so a write-back batch never pins the pool and evicts
// nothing for it. Meanwhile the frame sits in flushing, as an eviction's
// victim does, so a fetch of the page waits for the write. It reports
// whether it wrote the page: one fetched since it was found elided is
// buffered and dirty, and is written like any other; one another writer
// is writing is left to it. A failed write hands the dirty page table entry
// back to the elided entry, unless a Drop has forgotten the page meanwhile.
func (p *Pool) writeElided(pid PageID) (bool, error) {
	sh := p.shard(pid)
	sh.mu.Lock()
	e, ok := sh.elided[pid]
	_, buffered := sh.frames[pid]
	if _, writing := sh.flushing[pid]; !ok || buffered || writing {
		sh.mu.Unlock()
		return false, nil
	}
	f := &Frame{ID: pid, pool: p}
	op := &flushOp{f: f}
	sh.flushing[pid] = op
	sh.mu.Unlock()
	err := p.replay(f, e)
	if err == nil {
		err = p.flush(f)
	}
	sh.mu.Lock()
	delete(sh.flushing, pid)
	switch {
	case err == nil:
		p.forget(sh, pid)
	case sh.elided[pid] == e:
		p.dirty.move(&f.dirtyPos, &e.pos)
	default:
		p.dirty.leave(&f.dirtyPos)
	}
	ch := op.done
	sh.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	return err == nil, err
}

// isElided reports whether pid is held as an elided entry now.
func (p *Pool) isElided(pid PageID) bool {
	if p.cap == 0 {
		return false
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	_, ok := sh.elided[pid]
	sh.mu.Unlock()
	return ok
}

// ElidedCount returns the number of elided pages the pool holds now.
func (p *Pool) ElidedCount() int { return int(p.elidedN.Load()) }
