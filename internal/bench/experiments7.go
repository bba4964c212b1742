package bench

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/wal"
)

// T18FileStorage is experiment T18: the cost of real durability. The
// same transactional insert workload runs against three stable layers —
// the in-memory simulated disk, the file-backed engine with an fsync on
// every group-commit round (SyncAlways), and the file-backed engine
// leaving durability to the page cache (SyncNever, the posture the
// real-crash torture gate recovers from). Group commit is what keeps
// the fsync tax sublinear: concurrent committers share one segment
// write and one fsync per round, so fsyncs/commit falls as threads
// rise. The file columns also surface the physical-work counters: WAL
// segments created and recycled across the mid-run checkpoint, and
// page-slot checksum verifications performed by the page file.
func T18FileStorage(w io.Writer, p Params) {
	ops := p.OpsPerThread / 4
	if ops < 1_000 {
		ops = 1_000
	}
	threads := []int{1, 4, 16}

	fmt.Fprintf(w, "\nT18: durable file-backed storage, %d single-insert commits/thread (group commit on)\n", ops)
	fmt.Fprintf(w, "%-12s%8s%9s%15s%15s%7s%7s%10s\n",
		"backend", "threads", "kops/s", "forces/commit", "fsyncs/commit", "segs+", "segs~", "cksums")

	for _, backend := range []string{"mem", "file-always", "file-never"} {
		for _, th := range threads {
			var e *engine.Engine
			var dir string
			switch backend {
			case "mem":
				e = engine.New(engine.Options{PoolCapacity: 128})
			default:
				var err error
				dir, err = os.MkdirTemp("", "pitree-t18-*")
				if err != nil {
					panic(err)
				}
				pol := wal.SyncAlways
				if backend == "file-never" {
					pol = wal.SyncNever
				}
				e, _, err = engine.Open(engine.Options{
					DataDir:           dir,
					PoolCapacity:      128,
					SegmentSize:       256 << 10,
					Sync:              pol,
					WriteBackInterval: 2 * time.Millisecond,
				})
				if err != nil {
					panic(err)
				}
			}
			b := core.Register(e.Reg, false)
			st := e.AddStore(1, core.Codec{})
			tree, err := core.Create(st, e.TM, e.Locks, b, "t18", core.Options{
				LeafCapacity: 64, IndexCapacity: 64, CompletionWorkers: 2,
			})
			if err != nil {
				panic(err)
			}

			var wg sync.WaitGroup
			start := time.Now()
			for t := 0; t < th; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						tx := e.TM.Begin()
						k := uint64(t*ops + i)
						if err := tree.Insert(tx, keys.Uint64(k), []byte("t18")); err != nil {
							_ = tx.Abort()
							continue
						}
						if err := tx.Commit(); err != nil {
							panic(err)
						}
						// One fuzzy checkpoint mid-run: on the file
						// backends it syncs the page file and recycles
						// the WAL segments behind the horizon.
						if t == 0 && i == ops/2 {
							if _, err := e.Checkpoint(); err != nil {
								panic(err)
							}
						}
					}
				}(t)
			}
			wg.Wait()
			elapsed := time.Since(start)

			commits := float64(th * ops)
			_, flushes := e.Log.Stats()
			ws, ds := e.FileStats()
			var cksums int64
			for _, d := range ds {
				cksums += d.ChecksumChecks
			}
			kops := commits / elapsed.Seconds() / 1000
			fmt.Fprintf(w, "%-12s%8d%9.1f%15.3f%15.3f%7d%7d%10d\n",
				backend, th, kops,
				float64(flushes)/commits, float64(ws.Fsyncs)/commits,
				ws.SegmentsCreated, ws.SegmentsRecycled, cksums)

			tag := fmt.Sprintf("backend=%s.threads=%d", backend, th)
			p.Report.Add("T18", "file.ops_per_sec."+tag, commits/elapsed.Seconds(), "ops/s")
			p.Report.Add("T18", "file.forces_per_commit."+tag, float64(flushes)/commits, "forces/commit")
			p.Report.Add("T18", "file.fsyncs_per_commit."+tag, float64(ws.Fsyncs)/commits, "fsyncs/commit")
			p.Report.Add("T18", "file.segments_created."+tag, float64(ws.SegmentsCreated), "segments")
			p.Report.Add("T18", "file.segments_recycled."+tag, float64(ws.SegmentsRecycled), "segments")
			p.Report.Add("T18", "file.checksum_verifies."+tag, float64(cksums), "checks")
			if dir != "" {
				// The write-back subsystem's counters and LSN watermarks,
				// read before Close flushes everything.
				wb := e.WriteBackStats()
				p.Report.Add("T18", "writeback.pages_flushed."+tag, float64(wb.Flushed), "pages")
				p.Report.Add("T18", "writeback.ticks."+tag, float64(wb.Ticks), "ticks")
				p.Report.Add("T18", "writeback.idle_ticks."+tag, float64(wb.IdleTicks), "ticks")
				p.Report.Add("T18", "writeback.skipped_in_window."+tag, float64(wb.SkippedInWindow), "page-ticks")
				p.Report.Add("T18", "writeback.window_bytes."+tag, float64(wb.WindowBytes), "bytes")
				p.Report.Add("T18", "writeback.redo_window_bytes."+tag, float64(wb.RedoWindow), "bytes")
				p.Report.Add("T18", "writeback.oldest_dirty_reclsn."+tag, float64(wb.OldestDirty), "lsn")
				p.Report.Add("T18", "wal.buffered_bytes."+tag, float64(wb.LogBuffered), "bytes")
				p.Report.Add("T18", "wal.buffer_start_lsn."+tag, float64(wb.LogBufferFrom), "lsn")
				p.Report.Add("T18", "wal.checkpoint_lsn."+tag, float64(wb.CheckpointLSN), "lsn")
				p.Report.Add("T18", "wal.recycle_horizon_lsn."+tag, float64(wb.RecycleHorizon), "lsn")
			}

			tree.Close()
			if err := e.Close(); err != nil {
				panic(err)
			}
			if dir != "" {
				os.RemoveAll(dir)
			}
		}
	}
	fmt.Fprintf(w, "(claim: group commit amortizes the fsync tax — fsyncs/commit falls with concurrency;\n SyncNever shows the page-cache ceiling the real-crash gate recovers from)\n")
}
