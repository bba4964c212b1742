package main

import (
	"bufio"
	"fmt"
	"os"
)

// spanName identifies a call the driver makes into a layer. Spans are
// recorded here, around those calls; spans inside the program are a later
// change.
type spanName uint8

const (
	spOp spanName = iota // one client operation; parent of the rest
	spBegin
	spCommit
	spAbort
	spSnapshotBegin
	spSnapshotRelease
	spCheckpoint
	spTree       // spTree+opKind is the tree call of that op kind
	numSpanNames = spTree + spanName(numOpKinds)
)

func (n spanName) String() string {
	switch n {
	case spOp:
		return "op"
	case spBegin:
		return "txn.Begin"
	case spCommit:
		return "txn.Commit"
	case spAbort:
		return "txn.Abort"
	case spSnapshotBegin:
		return "txn.BeginSnapshot"
	case spSnapshotRelease:
		return "txn.Snapshot.Release"
	case spCheckpoint:
		return "engine.Checkpoint"
	}
	return "tree." + opInfo[n-spTree].name
}

type span struct {
	name       spanName
	op         uint64 // id of the client operation that caused it
	start, end int64  // ns since the run's epoch
}

// selfNanos is a span's duration minus the part of it its child spans
// cover. Children may overlap each other and stick out of the parent.
func selfNanos(parent span, children []span) int64 {
	var buf [8][2]int64 // an op has a handful of children; no allocation
	iv := buf[:0]
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e <= s {
			continue
		}
		iv = append(iv, [2]int64{s, e})
		for i := len(iv) - 1; i > 0 && iv[i][0] < iv[i-1][0]; i-- {
			iv[i], iv[i-1] = iv[i-1], iv[i]
		}
	}
	covered, reach := int64(0), parent.start
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		covered += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return parent.end - parent.start - covered
}

// maxKeptSpans bounds the spans one client keeps for the trace file. The
// per-name totals and histograms cover every span; a cached read workload
// makes millions a second, which no trace viewer opens.
const maxKeptSpans = 100_000

// tracer collects one goroutine's spans. A nil tracer records nothing, so
// the untraced run pays one nil check per call site.
type tracer struct {
	tid   int
	clock func() int64
	kept  []span
	cur   []span // children of the operation in progress
	opID  uint64
	total [numSpanNames]int64
	self  [numSpanNames]int64
	hist  [numSpanNames]*hist
}

func newTracer(tid int, clock func() int64) *tracer {
	t := &tracer{tid: tid, clock: clock}
	for i := range t.hist {
		t.hist[i] = new(hist)
	}
	return t
}

// start returns the start time of a child span; end closes it.
func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

func (t *tracer) end(name spanName, start int64) {
	if t == nil {
		return
	}
	t.cur = append(t.cur, span{name: name, op: t.opID, start: start, end: t.clock()})
}

// finishOp closes the operation span [start, end) and books it and its
// children: a child has no children of its own here, so its self time is
// its duration; the op span's self time is the driver's own.
func (t *tracer) finishOp(start, end int64) {
	opSpan := span{name: spOp, op: t.opID, start: start, end: end}
	t.book(opSpan, selfNanos(opSpan, t.cur))
	for _, c := range t.cur {
		t.book(c, c.end-c.start)
	}
	t.cur = t.cur[:0]
	t.opID++
}

// single books a span that belongs to no client operation (the driver's
// periodic checkpoint).
func (t *tracer) single(name spanName, start int64) {
	if t == nil {
		return
	}
	s := span{name: name, op: ^uint64(0), start: start, end: t.clock()}
	t.book(s, s.end-s.start)
}

func (t *tracer) book(s span, self int64) {
	t.total[s.name] += s.end - s.start
	t.self[s.name] += self
	t.hist[s.name].add(s.end - s.start)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, s)
	}
}

// traceSummary is the merge of every tracer of a run.
type traceSummary struct {
	total [numSpanNames]int64
	self  [numSpanNames]int64
	hist  [numSpanNames]hist
}

func summarize(ts []*tracer) *traceSummary {
	s := new(traceSummary)
	for _, t := range ts {
		for n := range t.total {
			s.total[n] += t.total[n]
			s.self[n] += t.self[n]
			s.hist[n].merge(t.hist[n])
		}
	}
	return s
}

// share of all operation time spent in spans of the given names.
func (s *traceSummary) share(names ...spanName) float64 {
	if s.total[spOp] == 0 {
		return 0
	}
	var sum int64
	for _, n := range names {
		sum += s.total[n]
	}
	return float64(sum) / float64(s.total[spOp])
}

// writeChromeTrace writes the kept spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): one complete event per span, one thread
// per client, args.op tying a call to the operation that caused it.
func writeChromeTrace(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, t := range ts {
		for _, s := range t.kept {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d}}`,
				s.name.String(), t.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
