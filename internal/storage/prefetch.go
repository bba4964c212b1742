package storage

import (
	"sync"

	"repro/internal/wal"
)

// FPPoolPrefetch is the failpoint probed before every asynchronous
// read-ahead issued by the pool's prefetcher. A fault here only drops the
// prefetch (counted as wasted): the foreground Fetch that follows repeats
// the read synchronously and reports any real error itself, so an
// injected prefetch fault degrades scans to synchronous fetching and can
// never surface wrong data.
const FPPoolPrefetch = "pool.prefetch"

// prefetcher is the pool's bounded-window async read-ahead worker. Scans
// feed it leaf successor hints (the next leaf's page ID, known from the
// current leaf's side pointer) with the scan's end key. A single-step
// hint arrives only a callback's width ahead of the foreground fetch —
// too late to hide a disk read — so the worker treats each hint as a
// chain seed: it walks the side-pointer chain (via the codec's
// SuccessorHint, when the codec provides one) up to `depth` pages past
// the scan's position, reading ahead of the foreground rather than
// trailing it, and no further than the leaf that covers the scan's end.
// Hints that arrive while the worker is mid-chain are dropped rather
// than queued — read-ahead is advisory and must never apply backpressure
// to the scan driving it.
type prefetcher struct {
	req   chan prefetchReq
	done  chan struct{}
	depth int
	wg    sync.WaitGroup
}

// EnablePrefetch starts the pool's async prefetcher with the given
// request-window size. Idempotent: enabling an already-enabled pool is a
// no-op. window <= 0 leaves prefetching disabled. Must be called before
// the pool is used concurrently (engine wiring calls it at store attach).
func (p *Pool) EnablePrefetch(window int) {
	if window <= 0 || p.pf != nil {
		return
	}
	pf := &prefetcher{
		req:   make(chan prefetchReq, window),
		done:  make(chan struct{}),
		depth: window,
	}
	p.pf = pf
	pf.wg.Add(1)
	go func() {
		defer pf.wg.Done()
		for {
			select {
			case <-pf.done:
				return
			case r := <-pf.req:
				// Drain to the newest hint: queued hints are stale
				// position fixes from leaves the scan already passed,
				// and a chain from a stale seed spends its whole step
				// budget re-walking warmed ground without ever reaching
				// the frontier. Only the latest position is worth
				// chaining from.
			drain:
				for {
					select {
					case r = <-pf.req:
					default:
						break drain
					}
				}
				p.prefetchChain(r, pf)
			}
		}
	}()
}

// StopPrefetch stops the prefetcher and waits for its in-flight read to
// finish. Idempotent; safe on a pool that never enabled prefetching.
func (p *Pool) StopPrefetch() {
	pf := p.pf
	if pf == nil {
		return
	}
	p.pf = nil
	close(pf.done)
	pf.wg.Wait()
}

// prefetchReq is one read-ahead hint: the page to warm and the end key
// of the scan that gave it.
type prefetchReq struct {
	pid PageID
	end []byte
}

// PrefetchAsync requests an async read-ahead of pid for a scan that ends
// at end (exclusive; nil: no end). The worker reads end after the call
// returns, so the caller must not change its bytes. Non-blocking: with
// prefetching disabled, pid nil, or the window full, the hint is dropped.
func (p *Pool) PrefetchAsync(pid PageID, end []byte) {
	pf := p.pf
	if pf == nil || pid == NilPage {
		return
	}
	select {
	case pf.req <- prefetchReq{pid, end}:
	default:
		// Window full: the worker is behind; dropping the hint just means
		// the scan's own fetch does the read synchronously.
	}
}

// prefetchChain services one read-ahead request: starting from the
// hinted page, walk the side-pointer chain and read pages in until
// pf.depth reads have been issued. Pages already resident are walked
// through free — they don't consume the read budget — so a hint from a
// scan whose recent span is still buffered skips to the cold frontier
// and then runs a full window of reads PAST it; this is what actually
// puts the worker ahead of the foreground (a budget that counted
// resident skips would exhaust itself re-covering warmed ground and
// never lead the scan by more than a page). The step cap — total walk
// length, resident or not — bounds how far the frontier can run ahead
// of the scan: each hint is a fresh position fix, and capping the walk
// at twice the window keeps the lead inside the pool's ability to hold
// warmed pages until the scan arrives (an uncapped walk laps the scan
// and its pages are evicted unconsumed). The walk also stops at the
// chain's end, at the first failed read, or when the codec cannot
// supply successors (chain length 1 — the single-page behavior), and
// after the page that covers the scan's end: the codec gives no
// successor past it.
func (p *Pool) prefetchChain(r prefetchReq, pf *prefetcher) {
	pid, issued := r.pid, 0
	for steps := 0; issued < pf.depth && steps < pf.depth*2 && pid != NilPage; steps++ {
		select {
		case <-pf.done:
			return
		default:
		}
		next, didIO, ok := p.warmOne(pid, r.end)
		if !ok {
			return
		}
		if didIO {
			issued++
		}
		pid = next
	}
}

// warmOne makes pid resident (reading it from disk if needed) and
// returns its successor page for the chain walk toward end. A page read
// here is tagged so the foreground fetch that consumes it counts as a
// prefetch hit. A failed read (injected or real) only counts as wasted — the
// foreground path repeats it and owns the error. didIO reports whether
// a read was issued; ok is false when the walk cannot continue (read
// failed or faulted).
func (p *Pool) warmOne(pid PageID, end []byte) (next PageID, didIO, ok bool) {
	f := p.peek(pid)
	if f == nil {
		if err := p.inj.Check(FPPoolPrefetch); err != nil {
			p.prefetchWasted.Add(1)
			return NilPage, false, false
		}
		p.prefetchIssued.Add(1)
		didIO = true
		var err error
		// Warm mode tags the loading placeholder before the read, so a
		// foreground fetch overlapping the read still counts as a hit.
		f, err = p.fetch(pid, true, wal.NilLSN)
		if err != nil {
			p.prefetchWasted.Add(1)
			return NilPage, true, false
		}
	}
	next = NilPage
	if sc, chains := p.codec.(SuccessorCodec); chains {
		// The successor lives in the decoded page, which writers mutate
		// under the frame's X latch; a brief S hold makes the read safe.
		f.Latch.AcquireS()
		next = sc.SuccessorHint(f.Data, end)
		f.Latch.ReleaseS()
	}
	p.Unpin(f)
	return next, didIO, true
}

// resident reports whether pid is currently buffered, without pinning or
// loading it. Advisory: the answer can go stale immediately.
func (p *Pool) resident(pid PageID) bool {
	if p.cap == 0 {
		return p.ftab.get(pid) != nil
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	_, ok := sh.frames[pid]
	sh.mu.Unlock()
	return ok
}

// peek returns pid's frame, pinned, if it is already resident and fully
// loaded — without touching hit or prefetch accounting (the walk is
// bookkeeping-invisible when it does no I/O). nil when the page is
// absent or a concurrent fetch is still loading it.
func (p *Pool) peek(pid PageID) *Frame {
	if p.cap == 0 {
		if f := p.ftab.get(pid); f != nil {
			f.pins.Add(1)
			return f
		}
		return nil
	}
	sh := p.shard(pid)
	sh.mu.Lock()
	f, ok := sh.frames[pid]
	if !ok || f.loading {
		sh.mu.Unlock()
		return nil
	}
	f.pins.Add(1)
	sh.mu.Unlock()
	return f
}
