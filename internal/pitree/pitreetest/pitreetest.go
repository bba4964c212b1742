// Package pitreetest holds what the three trees' log-record tests share.
package pitreetest

import (
	"bytes"
	"testing"

	"repro/internal/storage"
	"repro/internal/wal"
)

// UndoRoundTrip logs an update record of kind with payload for page data —
// and before it, when sibImage is non-nil, the format record (kind format)
// of the sibling sibPid the update made — as one action's chain. It applies
// the record to data through its handler, then builds the record's
// compensation from the log and applies that through its handler, and
// returns the page's image after each step. An update that leaves the image
// as it was fails the test.
func UndoRoundTrip(t testing.TB, reg *storage.Registry, data any, image func(data any) []byte,
	format wal.Kind, sibPid storage.PageID, sibImage []byte, kind wal.Kind, payload []byte) (applied, undone []byte) {
	t.Helper()
	const txn, store, page = 1, 1, 77
	log := wal.New()
	var prev wal.LSN
	if sibImage != nil {
		prev = log.Append(&wal.Record{Type: wal.RecUpdate, Kind: format, TxnID: txn, StoreID: store, PageID: uint64(sibPid), Payload: sibImage})
	}
	rec := &wal.Record{Type: wal.RecUpdate, Kind: kind, TxnID: txn, PrevLSN: prev, StoreID: store, PageID: page, Payload: payload}
	log.Append(rec)
	before := image(data)
	f := &storage.Frame{ID: page, Data: data}
	h, err := reg.Handler(kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Redo(f, rec); err != nil {
		t.Fatalf("apply kind %d: %v", kind, err)
	}
	if applied = image(f.Data); bytes.Equal(applied, before) {
		t.Fatalf("kind %d changed nothing", kind)
	}
	comp, err := h.MakeUndo(rec, log)
	if err != nil {
		t.Fatalf("undo of kind %d: %v", kind, err)
	}
	ch, err := reg.Handler(comp.Kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Redo(f, &wal.Record{Type: wal.RecCLR, Kind: comp.Kind, Payload: comp.Payload}); err != nil {
		t.Fatalf("apply compensation kind %d: %v", comp.Kind, err)
	}
	return applied, image(f.Data)
}

// CutBeforeCommit forces the log and returns the LSN of the commit record
// of the transaction that logged the log's last update record of kind: a
// crash image cut there holds the whole transaction and not its commit.
func CutBeforeCommit(t testing.TB, log *wal.Log, kind wal.Kind) wal.LSN {
	t.Helper()
	if err := log.ForceAll(); err != nil {
		t.Fatal(err)
	}
	var id wal.TxnID
	var commit wal.LSN
	log.FullImage().Scan(wal.NilLSN, func(r wal.Record) bool {
		switch {
		case r.Type == wal.RecUpdate && r.Kind == kind:
			id, commit = r.TxnID, wal.NilLSN
		case r.Type == wal.RecCommit && r.TxnID == id:
			commit = r.LSN
		}
		return true
	})
	if commit == wal.NilLSN {
		t.Fatalf("no committed transaction logged a record of kind %d", kind)
	}
	return commit
}
