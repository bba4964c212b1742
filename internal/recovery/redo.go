package recovery

import (
	"sort"
	"sync"

	"repro/internal/storage"
	"repro/internal/wal"
)

// pageKey identifies one page across stores.
type pageKey struct {
	store uint32
	page  uint64
}

// hash spreads pages across redo workers; the multiply-shift mix keeps
// sequentially allocated page IDs off the same worker.
func (k pageKey) hash() uint64 {
	h := k.page ^ uint64(k.store)<<32 ^ uint64(k.store)
	return (h * 0x9E3779B97F4A7C15) >> 17
}

// dirtyPage is one row of analysis's dirty page table: where the page was
// first dirtied, its newest record, and how many of its records lie at or
// past recLSN — the ones the serial redo scan applies to it. lastLSN and
// n are what a chain walk needs; the log links the records themselves.
type dirtyPage struct {
	recLSN  wal.LSN
	lastLSN wal.LSN
	n       int
}

// dirtyTable is analysis's dirty page table: store -> page -> row.
type dirtyTable map[uint32]map[uint64]*dirtyPage

// note counts a record of the page at lsn in its row, and reports whether
// the record lies at or past recLSN, where redo applies it.
func (e *dirtyPage) note(lsn wal.LSN) bool {
	if lsn < e.recLSN {
		return false
	}
	e.lastLSN = lsn
	e.n++
	return true
}

// redoPage is one page a redo worker repeats history on.
type redoPage struct {
	key pageKey
	*dirtyPage
}

// redoChains repeats history page by page: the dirty pages with records
// to redo are hashed onto workers, and each worker walks each of its
// pages' log chains back from the page's newest record to the state its
// stable image holds and applies it forward (storage.Pool.RedoChain,
// the walk an elided page's fetch runs too), a loader beside it fetching
// upcoming pages through the pool. Page-oriented redo needs no cross-page
// order — repeating history is per-page (§4.3) — so workers never
// coordinate.
func redoChains(img *wal.Reader, reg *storage.Registry, dpt dirtyTable, workers int, st *Stats) error {
	var pages []redoPage
	for store, m := range dpt {
		for page, e := range m {
			if e.n > 0 {
				pages = append(pages, redoPage{pageKey{store, page}, e})
				st.RedoneRecords += e.n
			}
		}
	}
	if len(pages) == 0 {
		return nil
	}
	workers = min(workers, len(pages))
	buckets := make([][]redoPage, workers)
	for _, pg := range pages {
		w := int(pg.key.hash() % uint64(workers))
		buckets[w] = append(buckets[w], pg)
	}
	read := func(lsn wal.LSN, buf []byte) (wal.Record, []byte, error) {
		rec, err := img.RecordAt(lsn)
		return rec, buf, err
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, bucket := range buckets {
		if len(bucket) == 0 {
			continue // hashing can leave a worker with no pages
		}
		// Deterministic per-worker order (and page-ID locality for the
		// loader): map iteration order must not leak into fetch order.
		sort.Slice(bucket, func(i, j int) bool {
			a, b := bucket[i].key, bucket[j].key
			if a.store != b.store {
				return a.store < b.store
			}
			return a.page < b.page
		})
		wg.Add(1)
		go func(pages []redoPage) {
			defer wg.Done()
			var c redoCounts
			err := c.run(read, reg, pages)
			mu.Lock()
			defer mu.Unlock()
			st.FetchSkippedPages += c.skippedPages
			st.FetchSkippedRecords += c.skippedRecs
			st.ImageStarts += c.imageStarts
			st.MidChainPages += c.midChain
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(bucket)
	}
	wg.Wait()
	return firstErr
}

// prefetchAhead bounds how many fetched pages a worker's loader may hold
// in front of the worker — enough to hide the read+decode, small enough
// not to thrash a bounded pool.
const prefetchAhead = 2

// redoCounts are one worker's redo outcomes.
type redoCounts struct {
	skippedPages, skippedRecs int
	imageStarts, midChain     int
}

// loaded is one page a worker's loader fetched, pinned — no frame when its
// stable image already held the page's records — or the error that
// stopped it.
type loaded struct {
	pool *storage.Pool
	f    *storage.Frame
	err  error
}

// run drains one worker's pages, one chain redo each. A companion
// goroutine, the loader, fetches the pages in order and hands them over
// pinned, at most prefetchAhead in front, so the worker finds each read
// and decoded and nothing reads a page twice (storage.Pool.FetchForRedo).
// A page whose stable image already holds its newest record is the skip:
// the loader reads and checks the image but does not decode it.
func (c *redoCounts) run(read storage.ChainRead, reg *storage.Registry, pages []redoPage) error {
	ahead := make(chan loaded, prefetchAhead)
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for l := range ahead { // what the loader fetched past an error
			if l.f != nil {
				l.pool.Unpin(l.f)
			}
		}
	}()
	go func() {
		defer close(ahead)
		for _, pg := range pages {
			var l loaded
			if l.pool, l.err = reg.Pool(pg.key.store); l.err == nil {
				l.f, l.err = l.pool.FetchForRedo(storage.PageID(pg.key.page), pg.lastLSN)
			}
			select {
			case ahead <- l:
			case <-stop:
				if l.f != nil {
					l.pool.Unpin(l.f)
				}
				return
			}
			if l.err != nil {
				return
			}
		}
	}()

	var cs storage.ChainScratch
	for _, pg := range pages {
		l := <-ahead
		if l.err != nil {
			return l.err
		}
		if l.f == nil {
			c.skippedPages++
			c.skippedRecs += pg.n
			continue
		}
		stable, full, err := l.pool.RedoChain(&cs, l.f, read, pg.lastLSN, pg.recLSN, pg.n)
		l.pool.Unpin(l.f)
		switch {
		case err != nil:
			return err
		case stable >= pg.lastLSN:
			c.skippedPages++
			c.skippedRecs += pg.n
		case full:
			c.imageStarts++
		case stable >= pg.recLSN:
			c.midChain++
		}
	}
	return nil
}
