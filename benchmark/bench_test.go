package main

import (
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// The crash-restart workload re-executes its own binary as the child; in a
// test that binary is the test binary, so hand the child's arguments on.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at 1/50 size for a fraction of a second,
// untraced and traced, and holds the emitted names and units to
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	var gated []string
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w.name)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program gates %d", len(bf.Workloads), len(gated))
	}
	for i, name := range gated {
		if bf.Workloads[i].Name != name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, bf.Workloads[i].Name, name)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 0.3, trace: traced, scale: 50}
			dir, err := os.MkdirTemp(outDir, "test-")
			if err != nil {
				t.Fatal(err)
			}
			rep, err := newRun(w.name, cfg).measure(w, cfg, dir)
			os.RemoveAll(dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d checks=%v", w.name, traced, rep.Correct, rep.Attempted, rep.FailedChecks)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for name, m := range rep.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit || m.Unit == "" {
					t.Errorf("%s: metric %q unit %q, BENCHMARK.json has unit %q (listed: %v)", w.name, name, m.Unit, unit, ok)
				}
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q breaks the naming rule", name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, name, m.Value)
				}
			}
		}
	}
}

func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	samples := make([]float64, 200_000)
	for i := range samples {
		ns := int64(math.Exp(rng.Float64()*20)) + 1 // 1 ns .. ~0.5 s, log-uniform
		samples[i] = float64(ns)
		h.add(ns)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.03 {
			t.Errorf("q=%v: histogram %v, exact %v, error %.1f%% > 3%%", q, got, exact, 100*rel)
		}
	}
	var a, b hist
	a.add(100)
	b.add(1000)
	b.add(1000)
	a.merge(&b)
	if a.n != 3 || a.quantile(0.5) < 990 || a.quantile(0.5) > 1010 {
		t.Errorf("merge: n=%d median=%v", a.n, a.quantile(0.5))
	}
}

func TestGeneratorRepeats(t *testing.T) {
	mix := workloads[2].mix
	draw := func(seed int64) []op {
		block := make([]op, 4096)
		newGenerator(seed, mix, 200_000, true).fill(block)
		return block
	}
	a, b, c := draw(7), draw(7), draw(8)
	same, differ := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
	}
	if !same {
		t.Error("the same seed gave two op sequences")
	}
	if !differ {
		t.Error("two seeds gave one op sequence")
	}
	// The mix shares hold to within a couple of percent.
	counts := map[opKind]int{}
	for _, o := range a {
		counts[o.kind]++
	}
	for _, e := range mix {
		if got := 100 * float64(counts[e.kind]) / float64(len(a)); math.Abs(got-float64(e.pct)) > 3 {
			t.Errorf("%s: %.1f%% of ops, mix says %d%%", opInfo[e.kind].name, got, e.pct)
		}
	}
}

func TestKeysAndValues(t *testing.T) {
	const n = 4000
	seen := map[uint64]bool{}
	points := map[uint64]bool{}
	for i := uint64(0); i < n; i++ {
		k := keyOf(i, n)
		if k >= n || seen[k] {
			t.Fatalf("keyOf(%d) = %d: out of range or repeated", i, k)
		}
		seen[k] = true
		p := pointOf(i)
		if p.X >= 1<<coordBits || p.Y >= 1<<coordBits || points[pointID(p)] || idPoint(pointID(p)) != p {
			t.Fatalf("pointOf(%d) = %v: outside the square, repeated, or not packable", i, p)
		}
		points[pointID(p)] = true
	}
	v := make([]byte, valueLen)
	fillValue(v, 42, 7)
	if !valueOK(v, 42) || valueSeq(v) != 7 {
		t.Error("a fresh value fails its own check")
	}
	if valueOK(v, 43) {
		t.Error("a value passes under another key")
	}
	v[50] ^= 1
	if valueOK(v, 42) {
		t.Error("a corrupted value passes")
	}
}

func TestThroughputWindows(t *testing.T) {
	r := phaseResult{elapsed: 6500 * time.Millisecond, succeeded: 545}
	r.windows = []int64{100, 5, 101, 99, 120, 70, 50} // the seventh window is partial
	if got := r.throughput(); got != 110.5 {
		t.Errorf("throughput %v, want 110.5: the mean of the two fastest of six whole windows", got)
	}
	short := phaseResult{elapsed: 2500 * time.Millisecond, succeeded: 250}
	short.windows = []int64{90, 110, 50}
	if got := short.throughput(); got != 100 {
		t.Errorf("a phase under three whole windows: throughput %v, want the plain mean 100", got)
	}
}

func TestSelfNanos(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"two apart", []span{{start: 110, end: 120}, {start: 150, end: 180}}, 60},
		{"overlapping", []span{{start: 110, end: 150}, {start: 140, end: 160}}, 50},
		{"out of order", []span{{start: 150, end: 160}, {start: 110, end: 120}}, 80},
		{"sticking out", []span{{start: 50, end: 110}, {start: 190, end: 300}}, 80},
		{"outside", []span{{start: 10, end: 20}}, 100},
		{"covering", []span{{start: 0, end: 1000}}, 0},
	} {
		if got := selfNanos(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	clock := int64(0)
	tr := newTracer(0, func() int64 { clock += 10; return clock })
	s := tr.start()     // 10
	tr.end(spBegin, s)  // ends 20
	s = tr.start()      // 30
	tr.end(spCommit, s) // ends 40
	tr.finishOp(0, 50)  // op [0,50): children cover 20
	if tr.self[spOp] != 30 || tr.total[spOp] != 50 || tr.total[spCommit] != 10 {
		t.Errorf("tracer: op self %d total %d, commit total %d", tr.self[spOp], tr.total[spOp], tr.total[spCommit])
	}
	sum := summarize([]*tracer{tr})
	if got := sum.share(spBegin, spCommit); got != 0.4 {
		t.Errorf("share of begin+commit %v, want 0.4", got)
	}
}

// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{7, 1, 4, 10, 2, 9, 3, 8, 5, 6}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	st := summarizePair(v)
	if st.spread != 1 || st.median != 5.5 {
		t.Errorf("spread %v median %v, want 1 and 5.5", st.spread, st.median)
	}
}
