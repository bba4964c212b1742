package main

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/lock"
	"repro/internal/spatial"
	"repro/internal/tsb"
	"repro/internal/txn"
)

const (
	scanLen = 100
	// snapshotOps is how many reads share one MVCC snapshot before the
	// client releases it and takes a new one.
	snapshotOps = 64
	// regionSide is the side of a RegionQuery window: 2^15 of the 2^20
	// square holds about records/1024 points, ~100 at full size.
	regionSide = 1 << 15
	// userBytesPerWrite is the key plus value bytes of one written record,
	// the denominator of write and space amplification.
	userBytesPerWrite = 8 + valueLen
)

// errBadValue marks a read whose result failed the self-describing value
// check (missing record, wrong key, bad CRC, short scan).
var errBadValue = errors.New("benchmark: read returned a wrong or missing value")

// failureKinds are the error sentinels that count as a failed operation;
// any other error stops the run. Each write is one transaction on one key,
// so no real deadlock exists and every ErrDeadlock is a false victim.
var failureKinds = [...]struct {
	name string
	err  error
}{
	{"bad_value", errBadValue},
	{"deadlock", lock.ErrDeadlock},
	{"degraded", engine.ErrDegraded},
	{"key_exists", core.ErrKeyExists},
	{"key_not_found", core.ErrKeyNotFound},
	{"tsb_key_not_found", tsb.ErrKeyNotFound},
	{"point_exists", spatial.ErrPointExists},
	{"point_not_found", spatial.ErrPointNotFound},
}

// failureKind returns the index into failureKinds of err, or -1.
func failureKind(err error) int {
	for i, k := range failureKinds {
		if errors.Is(err, k.err) {
			return i
		}
	}
	return -1
}

// client is one closed-loop caller: it issues its next op only when the
// previous one has returned, as a library user does.
type client struct {
	id int
	v  *env
	tr *tracer
	// done counts the ops finished in the current phase, for the watchdog.
	done atomic.Int64

	kb, hb [8]byte
	vbuf   []byte
	wval   [valueLen]byte
	seq    uint64 // sequence number of this client's last write

	snap    *txn.Snapshot
	snapAge int

	// head and tail bound the client's own inserted keys (or points) that
	// are still live: [tail, head).
	head, tail uint64

	// What the scan in progress must return: keys [wantLo, wantLo+scanLen)
	// or points inside wantRect. The callbacks are made once per client, so
	// a scan allocates nothing here.
	wantLo   uint64
	wantRect spatial.Rect
	scanGot  int
	scanBad  bool
	coreScan func(k keys.Key, val []byte) bool
	spScan   func(p spatial.Point, val []byte) bool

	// acked, when non-nil, records the last committed sequence number per
	// key (the crash-restart audit's table).
	acked map[uint64]uint64

	userBytes int64 // key+value bytes of successful writes
	results   int64 // records returned by successful scans
}

func newClient(v *env, id int) *client {
	c := &client{id: id, v: v, seq: uint64(id+1) << 48, head: v.rollingWindow()}
	c.coreScan = func(k keys.Key, val []byte) bool {
		id := keys.ToUint64(k)
		c.scanGot++
		if id < c.wantLo || id >= c.wantLo+scanLen || !valueOK(val, id) {
			c.scanBad = true
		}
		return true
	}
	c.spScan = func(p spatial.Point, val []byte) bool {
		c.scanGot++
		if !c.wantRect.Contains(p) || !valueOK(val, pointID(p)) {
			c.scanBad = true
		}
		return true
	}
	return c
}

func (c *client) key(k uint64) keys.Key {
	binary.BigEndian.PutUint64(c.kb[:], k)
	return c.kb[:]
}

// recordKey is the key of preloaded record idx. The crash-restart clients
// work on disjoint partitions, so that the last acked value of every key
// is known exactly.
func (c *client) recordKey(idx uint64) uint64 {
	if c.v.w.crash {
		idx = idx/uint64(c.v.clients)*uint64(c.v.clients) + uint64(c.id)
		if idx >= c.v.n {
			idx = uint64(c.id)
		}
	}
	return keyOf(idx, c.v.n)
}

// newPointIndex is the index of the j-th point this client inserts.
func (c *client) newPointIndex(j uint64) uint64 {
	return c.v.n + j*uint64(c.v.clients) + uint64(c.id)
}

func (c *client) release() {
	if c.snap != nil {
		c.snap.Release()
		c.snap = nil
	}
}

// snapshot returns the client's current MVCC snapshot, renewing it every
// snapshotOps uses.
func (c *client) snapshot() *txn.Snapshot {
	if c.snap != nil && c.snapAge < snapshotOps {
		c.snapAge++
		return c.snap
	}
	if c.snap != nil {
		s := c.tr.start()
		c.snap.Release()
		c.tr.end(spSnapshotRelease, s)
	}
	s := c.tr.start()
	c.snap = c.v.e.BeginSnapshot()
	c.tr.end(spSnapshotBegin, s)
	c.snapAge = 1
	return c.snap
}

// write runs one transaction around a single tree call.
func (c *client) write(kind opKind, id uint64, call func(tx *txn.Txn) error) error {
	s := c.tr.start()
	tx := c.v.e.TM.Begin()
	c.tr.end(spBegin, s)
	s = c.tr.start()
	err := call(tx)
	c.tr.end(spTree+spanName(kind), s)
	if err != nil {
		s = c.tr.start()
		_ = tx.Abort() // the tree call's error is the one to count
		c.tr.end(spAbort, s)
		return err
	}
	s = c.tr.start()
	err = tx.Commit()
	c.tr.end(spCommit, s)
	if err != nil {
		return err
	}
	if kind != opDelete {
		c.userBytes += userBytesPerWrite
	}
	if c.acked != nil {
		if kind == opDelete {
			delete(c.acked, id)
		} else {
			c.acked[id] = c.seq
		}
	}
	return nil
}

func (c *client) nextValue(id uint64) []byte {
	c.seq++
	fillValue(c.wval[:], id, c.seq)
	return c.wval[:]
}

// checkRead validates a point read of a record that must exist.
func (c *client) checkRead(val []byte, found bool, id uint64, err error) error {
	if err != nil {
		return err
	}
	if !found || !valueOK(val, id) {
		return errBadValue
	}
	c.vbuf = val[:0]
	return nil
}

// checkScan validates a finished scan: every record passed the value check
// and, when want >= 0, exactly want records came back.
func (c *client) checkScan(err error, want int) error {
	if err != nil {
		return err
	}
	if c.scanBad || (want >= 0 && c.scanGot != want) {
		return errBadValue
	}
	c.results += int64(c.scanGot)
	return nil
}

// exec runs one op against the tree, checks what it returns, and reports
// an error of a failure kind for a failed op.
func (c *client) exec(o op) error {
	v := c.v
	span := spTree + spanName(o.kind)
	switch o.kind {
	case opSearch:
		k := c.recordKey(o.idx)
		s := c.tr.start()
		val, found, err := v.core.SearchInto(nil, c.key(k), c.vbuf)
		c.tr.end(span, s)
		return c.checkRead(val, found, k, err)

	case opRangeScan, opSnapshotScan:
		lo := keyOf(o.idx, v.n) % (v.n - scanLen + 1)
		c.scanGot, c.scanBad, c.wantLo = 0, false, lo
		binary.BigEndian.PutUint64(c.hb[:], lo+scanLen)
		var err error
		if o.kind == opRangeScan {
			s := c.tr.start()
			err = v.core.RangeScan(nil, c.key(lo), c.hb[:], c.coreScan)
			c.tr.end(span, s)
		} else {
			snap := c.snapshot()
			s := c.tr.start()
			err = v.tsb.SnapshotScan(snap, c.key(lo), c.hb[:], c.coreScan)
			c.tr.end(span, s)
		}
		return c.checkScan(err, scanLen)

	case opUpdate:
		k := c.recordKey(o.idx)
		return c.write(o.kind, k, func(tx *txn.Txn) error { return v.core.Update(tx, c.key(k), c.nextValue(k)) })

	case opInsert:
		k := windowKey(c.id, c.head)
		err := c.write(o.kind, k, func(tx *txn.Txn) error { return v.core.Insert(tx, c.key(k), c.nextValue(k)) })
		if err == nil {
			c.head++
		}
		return err

	case opDelete:
		if c.tail == c.head { // nothing of its own left to delete: grow instead
			return c.exec(op{kind: opInsert})
		}
		k := windowKey(c.id, c.tail)
		err := c.write(o.kind, k, func(tx *txn.Txn) error { return v.core.Delete(tx, c.key(k)) })
		if err == nil {
			c.tail++
		}
		return err

	case opPut:
		k := keyOf(o.idx, v.n)
		return c.write(o.kind, k, func(tx *txn.Txn) error { return v.tsb.Put(tx, c.key(k), c.nextValue(k)) })

	case opSnapshotGet:
		k := keyOf(o.idx, v.n)
		snap := c.snapshot()
		s := c.tr.start()
		val, found, err := v.tsb.SnapshotGet(snap, c.key(k), c.vbuf)
		c.tr.end(span, s)
		return c.checkRead(val, found, k, err)

	case opGetAsOf:
		k := keyOf(o.idx, v.n)
		// A time uniform in [the client's snapshot, now]: version GC is on,
		// and only history a snapshot pins is sure to be kept.
		from := c.snapshot().TS()
		at := from + o.aux%(v.tsb.Now()-from+1)
		s := c.tr.start()
		val, found, err := v.tsb.GetAsOf(nil, c.key(k), at)
		c.tr.end(span, s)
		return c.checkRead(val, found, k, err)

	case opSpatialInsert:
		p := pointOf(c.newPointIndex(c.head))
		id := pointID(p)
		err := c.write(o.kind, id, func(tx *txn.Txn) error { return v.sp.Insert(tx, p, c.nextValue(id)) })
		if err == nil {
			c.head++
		}
		return err

	case opSpatialSearch:
		p := pointOf(o.idx)
		s := c.tr.start()
		val, found, err := v.sp.Search(nil, p)
		c.tr.end(span, s)
		return c.checkRead(val, found, pointID(p), err)

	case opRegionQuery:
		const room = 1<<coordBits - regionSide + 1
		q := spatial.Rect{X0: o.aux >> 32 % room, Y0: o.aux & (1<<32 - 1) % room}
		q.X1, q.Y1 = q.X0+regionSide, q.Y0+regionSide
		c.scanGot, c.scanBad, c.wantRect = 0, false, q
		s := c.tr.start()
		err := v.sp.RegionQuery(q, c.spScan)
		c.tr.end(span, s)
		return c.checkScan(err, -1)
	}
	panic("unknown op kind")
}
