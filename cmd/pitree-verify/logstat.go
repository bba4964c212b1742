package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/fsys"
	"repro/internal/spatial"
	"repro/internal/storage"
	"repro/internal/tsb"
	"repro/internal/wal"
)

// kindNames names the update kinds of the four packages that own pages.
// Kind 0 is a record without a page operation (commit, abort, the CLR
// that backs a chain over a redo-only record).
var kindNames = map[wal.Kind]string{
	0: "-",

	storage.KindMetaFormat: "storage.MetaFormat", storage.KindMetaAlloc: "storage.MetaAlloc",
	storage.KindMetaFree: "storage.MetaFree", storage.KindMetaSetRoot: "storage.MetaSetRoot",

	core.KindFormatNode: "core.FormatNode", core.KindSplitTruncate: "core.SplitTruncate",
	core.KindRestoreImage: "core.RestoreImage", core.KindInsertRecord: "core.InsertRecord",
	core.KindDeleteRecord: "core.DeleteRecord", core.KindUpdateRecord: "core.UpdateRecord",
	core.KindPostIndexTerm: "core.PostIndexTerm", core.KindRemoveIndexTerm: "core.RemoveIndexTerm",
	core.KindRootGrow: "core.RootGrow", core.KindConsolidateMove: "core.ConsolidateMove",
	core.KindMarkDead: "core.MarkDead", core.KindMarkAlive: "core.MarkAlive",
	core.KindRootShrink: "core.RootShrink",

	tsb.KindFormat: "tsb.Format", tsb.KindTimeSplit: "tsb.TimeSplit",
	tsb.KindRestoreImage: "tsb.RestoreImage", tsb.KindKeySplit: "tsb.KeySplit",
	tsb.KindPut: "tsb.Put", tsb.KindRemoveVersion: "tsb.RemoveVersion",
	tsb.KindPostTerm: "tsb.PostTerm", tsb.KindRemoveTerm: "tsb.RemoveTerm",
	tsb.KindPostKeyTerm: "tsb.PostKeyTerm", tsb.KindRemoveKeyTerm: "tsb.RemoveKeyTerm",
	tsb.KindIndexKeySplit: "tsb.IndexKeySplit", tsb.KindRootGrow: "tsb.RootGrow",
	tsb.KindRetireNode: "tsb.RetireNode", tsb.KindCutHist: "tsb.CutHist",
	tsb.KindUnsplit: "tsb.Unsplit", tsb.KindPrune: "tsb.Prune",

	spatial.KindFormat: "spatial.Format", spatial.KindRestore: "spatial.Restore",
	spatial.KindSplitOff: "spatial.SplitOff", spatial.KindInsertPoint: "spatial.InsertPoint",
	spatial.KindRemovePoint: "spatial.RemovePoint", spatial.KindPostTerm: "spatial.PostTerm",
	spatial.KindRemoveTerm: "spatial.RemoveTerm", spatial.KindRootGrow: "spatial.RootGrow",
	spatial.KindAbsorbSib: "spatial.AbsorbSib",
}

// runLogStat scans the WAL directory dir of fs read-only and prints what its
// records are made of: count, bytes, mean size and share of the bytes per
// (record type, kind) — tsb.Put in two rows, the puts logged as a delta from
// the version they supersede and the literal ones — and of those bytes the record frame's (everything
// but the payload) in total and per record; then the frame's share of the
// log and the bytes per committed user transaction, over the whole scan and
// again from the newest checkpoint record on (in a benchmark directory the
// whole scan starts inside the set-up, and the set-up's last checkpoint
// opens the measured phase). Last it checks every page's chain (chains) and
// prints their lengths; a broken link fails it.
func runLogStat(w io.Writer, fs fsys.FS, dir string) error {
	var ch chains
	type class struct {
		typ  wal.RecType
		kind wal.Kind
		form string // a tsb.Put's: delta or literal
	}
	type tally struct{ records, bytes, header int64 }
	rows := map[class]*tally{}
	var total tally
	var userCommits, actionCommits int64
	// tail counts from the newest checkpoint record seen, that record
	// included.
	var tail struct {
		tally
		at          wal.LSN
		userCommits int64
	}
	err := wal.ScanDir(fs, dir, func(rec *wal.Record) bool {
		if rec.Type == wal.RecCheckpoint {
			tail.tally, tail.at, tail.userCommits = tally{}, rec.LSN, 0
		}
		c := class{typ: rec.Type, kind: rec.Kind}
		if rec.Kind == tsb.KindPut {
			c.form = "literal"
			if tsb.IsPutDelta(rec.Payload) {
				c.form = "delta"
			}
		}
		t := rows[c]
		if t == nil {
			t = new(tally)
			rows[c] = t
		}
		n := int64(rec.Size())
		h := n - int64(len(rec.Payload))
		ch.add(rec)
		t.records++
		t.bytes += n
		t.header += h
		total.records++
		total.bytes += n
		total.header += h
		tail.records++
		tail.bytes += n
		if rec.Type == wal.RecCommit {
			if rec.IsSystem() {
				actionCommits++
			} else {
				userCommits++
				tail.userCommits++
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if total.records == 0 {
		return fmt.Errorf("no log records under %s", dir)
	}
	classes := make([]class, 0, len(rows))
	for c := range rows {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return rows[classes[i]].bytes > rows[classes[j]].bytes })
	fmt.Fprintf(w, "%-9s %-24s %10s %12s %9s %7s %11s %7s\n", "type", "kind", "records", "bytes", "mean B", "share", "header B", "mean H")
	row := func(typ, name string, t *tally) {
		fmt.Fprintf(w, "%-9s %-24s %10d %12d %9.1f %6.2f%% %11d %7.1f\n", typ, name, t.records, t.bytes,
			float64(t.bytes)/float64(t.records), 100*float64(t.bytes)/float64(total.bytes),
			t.header, float64(t.header)/float64(t.records))
	}
	for _, c := range classes {
		name, ok := kindNames[c.kind]
		if !ok {
			name = fmt.Sprintf("kind(%d)", c.kind)
		}
		if c.form != "" {
			name += " " + c.form
		}
		row(c.typ.String(), name, rows[c])
	}
	row("total", "", &total)
	fmt.Fprintf(w, "header bytes: %d of %d, %.2f%% of the log\n", total.header, total.bytes,
		100*float64(total.header)/float64(total.bytes))
	fmt.Fprintf(w, "committed: %d user transactions, %d atomic actions\n", userCommits, actionCommits)
	if userCommits > 0 {
		fmt.Fprintf(w, "per committed user transaction: %.1f bytes, %.2f records\n",
			float64(total.bytes)/float64(userCommits), float64(total.records)/float64(userCommits))
	}
	switch {
	case tail.at == wal.NilLSN:
		fmt.Fprintln(w, "from the newest checkpoint: no checkpoint record in the scan")
	case tail.userCommits == 0:
		fmt.Fprintf(w, "from the newest checkpoint (LSN %d): %d records, %d bytes, no committed user transaction\n",
			tail.at, tail.records, tail.bytes)
	default:
		fmt.Fprintf(w, "from the newest checkpoint (LSN %d): %d records, %d bytes, %d user transactions; per committed one %.1f bytes, %.2f records\n",
			tail.at, tail.records, tail.bytes, tail.userCommits,
			float64(tail.bytes)/float64(tail.userCommits), float64(tail.records)/float64(tail.userCommits))
	}
	return ch.report(w)
}

// chains checks the page chains of a log: each record that names its
// page's previous record (wal.Record.PagePrev) must name an earlier record
// of the same page. A link below the first record scanned cannot be
// checked and is counted as such. A page's chain length is the number of
// records linked back from its last one.
type chains struct {
	recs              map[wal.LSN]chainLink
	last              map[pageKey]wal.LSN
	start             wal.LSN
	linked, unchecked int64
	broken            int64
	examples          []string // the first few broken links
}

type pageKey struct {
	store uint32
	page  uint64
}

type chainLink struct {
	page  pageKey
	depth int
}

func (c *chains) add(rec *wal.Record) {
	if c.recs == nil {
		c.recs, c.last, c.start = map[wal.LSN]chainLink{}, map[pageKey]wal.LSN{}, rec.LSN
	}
	if rec.PageID == 0 {
		return
	}
	pk := pageKey{rec.StoreID, rec.PageID}
	depth := 1
	if prev := rec.PagePrev; prev != wal.NilLSN {
		c.linked++
		if l, ok := c.recs[prev]; ok && l.page == pk {
			depth += l.depth
		} else if prev >= c.start {
			if c.broken++; len(c.examples) < 10 {
				c.examples = append(c.examples, fmt.Sprintf("record %d of store %d page %d names %d, not an earlier record of its page",
					rec.LSN, pk.store, pk.page, prev))
			}
		} else {
			c.unchecked++
		}
	}
	c.recs[rec.LSN] = chainLink{pk, depth}
	c.last[pk] = rec.LSN
}

// report prints the chain-length histogram over pages and fails on a
// broken link.
func (c *chains) report(w io.Writer) error {
	var hist [8]int64 // 1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, more
	for _, lsn := range c.last {
		d, b := c.recs[lsn].depth, 0
		for b < len(hist)-1 && d > 1<<b {
			b++
		}
		hist[b]++
	}
	fmt.Fprintf(w, "page chains: %d pages, %d links, %d below the scan unchecked, %d broken\n",
		len(c.last), c.linked, c.unchecked, c.broken)
	for b, n := range hist {
		lo, hi := 1<<b/2+1, 1<<b
		label := fmt.Sprintf("%d-%d", lo, hi)
		switch {
		case b == 0:
			label = "1"
		case b == len(hist)-1:
			label = fmt.Sprintf(">%d", 1<<(b-1))
		case lo == hi:
			label = fmt.Sprint(hi)
		}
		fmt.Fprintf(w, "  chain %-7s %8d pages\n", label, n)
	}
	for _, b := range c.examples {
		fmt.Fprintln(w, "  broken:", b)
	}
	if c.broken > 0 {
		return fmt.Errorf("%d broken page-chain links", c.broken)
	}
	return nil
}
