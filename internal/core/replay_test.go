package core

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/storage"
)

// workloadValue is the benchmark's value (benchmark/gen.go) for record id at
// sequence number seq: id | seq | ten words of seq ^ id | CRC-32C of the
// first 96 bytes. A rewrite's delta is eleven short runs.
func workloadValue(id, seq uint64) []byte {
	v := make([]byte, 100)
	binary.BigEndian.PutUint64(v, id)
	for i := 8; i < 96; i += 8 {
		binary.BigEndian.PutUint64(v[i:], seq^id)
	}
	binary.BigEndian.PutUint64(v[8:], seq)
	binary.BigEndian.PutUint32(v[96:], crc32.Checksum(v[:96], crc32.MakeTable(crc32.Castagnoli)))
	return v
}

// replayChain is the chain BenchmarkReplay elides: three update records,
// which every bound on write elision since it was sized has let a victim
// drop.
const replayChain = 3

// BenchmarkReplay times the fetch of an elided leaf (DESIGN.md §18): the
// leaf takes replayChain updates of the benchmark's values, and then, b.N
// times, the pool drops it dirty and a fetch replays its chain onto its
// stable image (the replay leaves it dirty with the same chain, so the next
// eviction drops it again). Then, written back, the same leaf is evicted
// and fetched b.N times, a plain miss each time. It reports the replaying
// fetch's time per replayed record (Pool.Stats's ReplayedRecords),
// ns/record, and that less the plain miss's, ns/record-beyond-miss: what
// reading the chain and redoing it cost. Evicting is not timed.
func BenchmarkReplay(b *testing.B) {
	fx := newFixture(b, engine.Options{PoolCapacity: 4}, Options{})
	const n = 10_000
	for k := uint64(0); k < n; k++ {
		if err := fx.tree.Insert(nil, keys.Uint64(k), workloadValue(k, 0)); err != nil {
			b.Fatal(err)
		}
	}
	fx.tree.DrainCompletions()
	if _, err := fx.e.FlushAll(); err != nil {
		b.Fatal(err)
	}
	pool := fx.tree.store.Pool
	const id = n / 2
	for seq := uint64(1); seq <= replayChain; seq++ {
		if err := fx.tree.Update(nil, keys.Uint64(id), workloadValue(id, seq)); err != nil {
			b.Fatal(err)
		}
	}
	pid := fx.leafOf(b, keys.Uint64(id))
	next, _, _ := pool.SpaceSnapshot()
	fetch := func(p storage.PageID) {
		f, err := pool.Fetch(p)
		if err != nil {
			b.Fatal(err)
		}
		pool.Unpin(f)
	}
	// Three times as many other pages as the pool holds pass through it:
	// its clock evicts the leaf.
	var others []storage.PageID
	for p := storage.PageID(1); p < next && len(others) < 3*pool.Capacity(); p++ {
		if p != pid {
			others = append(others, p)
		}
	}
	// timeFetches evicts the leaf and times its fetch b.N times.
	timeFetches := func() (d time.Duration) {
		for range b.N {
			for _, p := range others {
				fetch(p)
			}
			t0 := time.Now()
			fetch(pid)
			d += time.Since(t0)
		}
		return d
	}
	b.ResetTimer()
	s0 := pool.Stats()
	replayTime := timeFetches()
	s1 := pool.Stats()
	replayed := s1.ReplayedRecords - s0.ReplayedRecords
	if s1.Elisions-s0.Elisions != int64(b.N) || s1.Replays-s0.Replays != int64(b.N) || replayed != int64(b.N*replayChain) {
		b.Fatalf("%d fetches elided %d pages and replayed %d, %d records, want %d, %d and %d",
			b.N, s1.Elisions-s0.Elisions, s1.Replays-s0.Replays, replayed, b.N, b.N, b.N*replayChain)
	}
	if err := pool.FlushPage(pid); err != nil {
		b.Fatal(err)
	}
	missTime := timeFetches()
	if s2 := pool.Stats(); s2.Replays != s1.Replays || s2.Elisions != s1.Elisions {
		b.Fatalf("the clean leaf was elided %d times and replayed %d", s2.Elisions-s1.Elisions, s2.Replays-s1.Replays)
	}
	b.ReportMetric(float64(replayTime.Nanoseconds())/float64(replayed), "ns/record")
	b.ReportMetric(float64((replayTime-missTime).Nanoseconds())/float64(replayed), "ns/record-beyond-miss")
}
