package main

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
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
	tsb.KindUnsplit: "tsb.Unsplit",

	spatial.KindFormat: "spatial.Format", spatial.KindRestore: "spatial.Restore",
	spatial.KindSplitOff: "spatial.SplitOff", spatial.KindInsertPoint: "spatial.InsertPoint",
	spatial.KindRemovePoint: "spatial.RemovePoint", spatial.KindPostTerm: "spatial.PostTerm",
	spatial.KindRemoveTerm: "spatial.RemoveTerm", spatial.KindRootGrow: "spatial.RootGrow",
	spatial.KindAbsorbSib: "spatial.AbsorbSib",
}

// runLogStat scans the WAL directory dir read-only and prints what its
// records are made of: count, bytes, mean size and share of the bytes per
// (record type, kind), and of those bytes the record frame's (everything
// but the payload) in total and per record; then the frame's share of the
// log and the bytes per committed user transaction.
func runLogStat(w io.Writer, dir string) error {
	type class struct {
		typ  wal.RecType
		kind wal.Kind
	}
	type tally struct{ records, bytes, header int64 }
	rows := map[class]*tally{}
	var total tally
	var userCommits, actionCommits int64
	err := wal.ScanDir(dir, func(rec *wal.Record) bool {
		c := class{rec.Type, rec.Kind}
		t := rows[c]
		if t == nil {
			t = new(tally)
			rows[c] = t
		}
		n := int64(rec.Size())
		h := n - int64(len(rec.Payload))
		t.records++
		t.bytes += n
		t.header += h
		total.records++
		total.bytes += n
		total.header += h
		if rec.Type == wal.RecCommit {
			if rec.IsSystem() {
				actionCommits++
			} else {
				userCommits++
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
	return nil
}
