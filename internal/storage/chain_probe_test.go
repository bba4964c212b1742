package storage

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/wal"
)

// chainCodec stores pages as 8 bytes naming the successor page, so the
// prefetcher's chain walk can be driven directly.
type chainCodec struct{}

func (chainCodec) AppendPage(dst []byte, v any) ([]byte, error) {
	return append(dst, v.([]byte)...), nil
}
func (chainCodec) DecodePage(b []byte) (any, error) {
	return append([]byte(nil), b...), nil
}
func (chainCodec) SuccessorHint(data any, _ []byte) PageID {
	b, ok := data.([]byte)
	if !ok || len(b) < 8 {
		return NilPage
	}
	return PageID(binary.LittleEndian.Uint64(b))
}

// TestPrefetchChainWalksSuccessors: one hint warms the whole chain up to
// the window depth, and foreground fetches of the warmed pages count as
// prefetch hits.
func TestPrefetchChainWalksSuccessors(t *testing.T) {
	log := wal.New()
	p := NewPool(1, memDisk(), log, chainCodec{}, 64)
	lg := &testLogger{log: log}
	const n = 32
	for i := 1; i <= n; i++ {
		next := make([]byte, 8)
		if i < n {
			binary.LittleEndian.PutUint64(next, uint64(i+1))
		}
		dirtyPage(t, p, lg, PageID(i), next)
	}
	if _, err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		p.Drop(PageID(i))
	}

	p.EnablePrefetch(8)
	defer p.StopPrefetch()
	p.PrefetchAsync(1, nil)

	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().PrefetchIssued < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := p.Stats().PrefetchIssued; got != 8 {
		t.Fatalf("chain issued %d reads, want window depth 8", got)
	}
	for i := 1; i <= 8; i++ {
		f, err := p.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(f)
	}
	if got := p.Stats().PrefetchHit; got != 8 {
		t.Fatalf("foreground consumed %d prefetch hits, want 8", got)
	}
	if got := p.Stats().PrefetchWasted; got != 0 {
		t.Fatalf("PrefetchWasted = %d, want 0", got)
	}
}
