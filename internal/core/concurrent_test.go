package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/lock"
)

// concurrentOpts uses background completion workers, as production would.
func concurrentOpts() Options {
	return Options{
		LeafCapacity:  16,
		IndexCapacity: 16,
		Consolidation: true,
	}
}

func TestConcurrentDisjointInserts(t *testing.T) {
	fx := newFixture(t, engine.Options{}, concurrentOpts())
	const workers = 8
	const perWorker = 300
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := keys.Uint64(uint64(w*perWorker + i))
				if err := fx.tree.Insert(nil, k, val(i)); err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	shape := fx.mustVerify(t)
	if shape.Records != workers*perWorker {
		t.Fatalf("records = %d, want %d", shape.Records, workers*perWorker)
	}
}

func TestConcurrentInsertSearchScan(t *testing.T) {
	fx := newFixture(t, engine.Options{}, concurrentOpts())
	// Preload.
	for i := 0; i < 500; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*2)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg, wgReaders sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)

	// Writers insert odd keys.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 500; i += 4 {
				if err := fx.tree.Insert(nil, keys.Uint64(uint64(i*2+1)), val(i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Readers hammer searches for preloaded keys, which must always be
	// found regardless of concurrent structure changes.
	for r := 0; r < 4; r++ {
		wgReaders.Add(1)
		go func(r int) {
			defer wgReaders.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(500)
				_, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i*2)))
				if err != nil || !ok {
					errs <- fmt.Errorf("reader: key %d ok=%v err=%v", i*2, ok, err)
					return
				}
			}
		}(r)
	}
	// One scanner repeatedly walks a range; counts must only grow for the
	// even keys it can rely on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			n := 0
			err := fx.tree.RangeScan(nil, keys.Uint64(0), keys.Uint64(1000), func(k keys.Key, v []byte) bool {
				n++
				return true
			})
			if err != nil {
				errs <- err
				return
			}
			if n < 500 {
				errs <- fmt.Errorf("scan saw %d < 500 preloaded keys", n)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	wgReaders.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	shape := fx.mustVerify(t)
	if shape.Records != 1000 {
		t.Fatalf("records = %d, want 1000", shape.Records)
	}
}

func TestConcurrentInsertDeleteWithConsolidation(t *testing.T) {
	fx := newFixture(t, engine.Options{}, concurrentOpts())
	const n = 2000
	for i := 0; i < n; i++ {
		if err := fx.tree.Insert(nil, keys.Uint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	// Deleters remove 3 of every 4 keys, concurrently, driving heavy
	// consolidation; a reader keeps checking the surviving stripe.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w + 1; i < n; i += 4 {
				if err := fx.tree.Delete(nil, keys.Uint64(uint64(i))); err != nil {
					errs <- fmt.Errorf("delete %d: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 2000; j++ {
			i := (j * 16) % n
			_, ok, err := fx.tree.Search(nil, keys.Uint64(uint64(i)))
			if err != nil || !ok {
				errs <- fmt.Errorf("surviving key %d: ok=%v err=%v", i, ok, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	shape := fx.mustVerify(t)
	if shape.Records != n/4 {
		t.Fatalf("records = %d, want %d", shape.Records, n/4)
	}
	if fx.tree.Stats.Consolidations.Load() == 0 {
		t.Fatal("expected consolidations to run")
	}
}

func TestConcurrentTransactionsWithAborts(t *testing.T) {
	for _, pageOriented := range []bool{false, true} {
		t.Run(fmt.Sprintf("pageOriented=%v", pageOriented), func(t *testing.T) {
			fx := newFixture(t, engine.Options{PageOriented: pageOriented}, concurrentOpts())
			const workers = 6
			const txPerWorker = 20
			const keysPerTx = 10

			committed := make([]map[uint64]bool, workers)
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				committed[w] = make(map[uint64]bool)
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w * 1009)))
					for txi := 0; txi < txPerWorker; txi++ {
						deadlocked := false
						tx := fx.e.TM.Begin()
						batch := make([]uint64, 0, keysPerTx)
						for j := 0; j < keysPerTx; j++ {
							k := uint64(w)<<32 | uint64(txi*keysPerTx+j)
							err := fx.tree.Insert(tx, keys.Uint64(k), val(j))
							if errors.Is(err, lock.ErrDeadlock) {
								// Deadlock victim: abort and retry the whole
								// transaction, as a real client would.
								deadlocked = true
								break
							}
							if err != nil {
								errs <- fmt.Errorf("worker %d tx %d insert: %w", w, txi, err)
								_ = tx.Abort()
								return
							}
							batch = append(batch, k)
						}
						if deadlocked {
							if err := tx.Abort(); err != nil {
								errs <- err
								return
							}
							txi-- // retry
							continue
						}
						if rng.Intn(3) == 0 {
							if err := tx.Abort(); err != nil {
								errs <- err
								return
							}
						} else {
							if err := tx.Commit(); err != nil {
								errs <- err
								return
							}
							for _, k := range batch {
								committed[w][k] = true
							}
						}
					}
				}(w)
			}
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			fx.tree.DrainCompletions()
			shape := fx.mustVerify(t)

			want := 0
			for w := 0; w < workers; w++ {
				for k := range committed[w] {
					want++
					_, ok, err := fx.tree.Search(nil, keys.Uint64(k))
					if err != nil || !ok {
						t.Fatalf("committed key %d missing (ok=%v err=%v)", k, ok, err)
					}
				}
			}
			if shape.Records != want {
				t.Fatalf("records = %d, want %d committed", shape.Records, want)
			}
		})
	}
}
