package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opBlock is how many ops a client generates at a time, outside the timed
// part of its loop.
const opBlock = 1024

// phaseSpec says what one phase runs. A phase ends after dur, or — when
// opsPerClient is set — after every client has run that many ops.
type phaseSpec struct {
	name         string
	mix          mixOf
	dur          time.Duration
	opsPerClient int
	seed         int64
	traced       bool
}

// clientResult is what one client measured in one phase.
type clientResult struct {
	lat [numClasses]hist
	// windows[i] counts the ops that succeeded in the i-th second.
	windows   []int64
	attempted int64
	failed    [len(failureKinds)]int64
	byKind    [numOpKinds]int64 // successful ops
}

// phaseResult merges the clients of one phase.
type phaseResult struct {
	clientResult
	elapsed   time.Duration
	succeeded int64
	userBytes int64
	results   int64
	trace     *traceSummary
	tracers   []*tracer
}

func (r *phaseResult) failedTotal() int64 { return r.attempted - r.succeeded }

// throughput is the rate of successful ops over the fastest third of the
// phase's whole one-second windows. The sandbox's speed swings by a quarter
// and more on a scale of seconds to minutes (a pure CPU loop shows it), and
// every run catches a different share of slow seconds; the fastest third is
// what repeats best from run to run. A second holds several
// garbage-collection cycles, so their cost stays in; what drops out is any
// slowdown that spares a third of the seconds — a checkpoint stall, say —
// which the latency percentiles, taken over every op, keep. A phase of
// fewer than three whole windows reports its plain mean.
func (r *phaseResult) throughput() float64 {
	whole := min(int(r.elapsed/time.Second), len(r.windows))
	if whole < 3 {
		return float64(r.succeeded) / r.elapsed.Seconds()
	}
	ws := append([]int64(nil), r.windows[:whole]...)
	sort.Slice(ws, func(i, j int) bool { return ws[i] > ws[j] })
	var ops int64
	for _, n := range ws[:whole/3] {
		ops += n
	}
	return float64(ops) / float64(whole/3)
}

// run holds what every phase of one benchmark process shares: the clock
// epoch and the watchdog's progress counter.
type run struct {
	workload string
	epoch    time.Time
	deadline time.Time
	// active is the clients of the phase in progress, nil between phases;
	// the watchdog reads their op counters.
	active atomic.Pointer[[]*client]
	// onExit, when set, is a child process the watchdog kills before it
	// ends this one.
	onExit atomic.Pointer[*os.Process]
}

// newRun starts the clock of one benchmark process. Its deadline is three
// times the nominal length: set-ups, warm-up, measured phase, tails, checks
// and restarts come to about twice -seconds plus 15 s.
func newRun(workload string, cfg config) *run {
	now := time.Now()
	return &run{
		workload: workload,
		epoch:    now,
		deadline: now.Add(3 * seconds(2*cfg.seconds+15)),
	}
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// watch enforces the two limits of a run: the whole-run deadline, and no
// ten seconds without a completed op (a lost lock grant parks a client
// forever). Either dumps all goroutines next to the results and exits
// non-zero naming the workload; ops in flight count as failed.
func (r *run) watch(stop <-chan struct{}) {
	const stall = 10 * time.Second
	last, lastChange := int64(-1), time.Now()
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		inFlight := 0
		if cl := r.active.Load(); cl == nil {
			lastChange = time.Now()
		} else {
			inFlight = len(*cl)
			var p int64
			for _, c := range *cl {
				p += c.done.Load()
			}
			if p != last {
				last, lastChange = p, time.Now()
			}
		}
		why := ""
		switch {
		case time.Now().After(r.deadline):
			why = "deadline exceeded"
		case time.Since(lastChange) > stall:
			why = fmt.Sprintf("no operation completed for %v", stall)
		default:
			continue
		}
		buf := make([]byte, 1<<24)
		buf = buf[:runtime.Stack(buf, true)]
		dump := filepath.Join(outDir, "goroutines-"+r.workload+".txt")
		_ = os.WriteFile(dump, buf, 0o644) // best effort: we are exiting on a failure
		if p := r.onExit.Load(); p != nil {
			_ = (*p).Kill()
		}
		fmt.Fprintf(os.Stderr, "benchmark: workload %s: %s; %d ops in flight counted as failed; goroutines in %s\n",
			r.workload, why, inFlight, dump)
		os.Exit(3)
	}
}

// runPhase drives v's clients through one phase and merges what they
// measured. An error outside the failure kinds stops the run.
func (r *run) runPhase(v *env, ps phaseSpec) (*phaseResult, error) {
	clients := v.clientSet()
	res := make([]clientResult, len(clients))
	errs := make([]error, len(clients))
	var stop atomic.Bool
	var wg sync.WaitGroup
	out := &phaseResult{}
	var startBytes, startResults int64
	for _, c := range clients {
		startBytes += c.userBytes
		startResults += c.results
		c.tr = nil
		if ps.traced {
			c.tr = newTracer(c.id, r.now)
			out.tracers = append(out.tracers, c.tr)
		}
	}
	begin := r.now()
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, cr *clientResult, errp *error) {
			defer wg.Done()
			gen := newGenerator(ps.seed*1_000_003+int64(c.id)*7919, ps.mix, v.n, v.w.zipfian)
			*errp = r.clientLoop(c, gen, ps, begin, &stop, cr)
			if *errp != nil {
				stop.Store(true)
			}
		}(c, &res[i], &errs[i])
	}

	// The driver's own periodic checkpoints, on their own goroutine.
	clientsDone := make(chan struct{})
	ckptDone := make(chan struct{})
	var ckptErr error
	var ckptTracer *tracer
	if ps.traced {
		ckptTracer = newTracer(len(clients), r.now)
		out.tracers = append(out.tracers, ckptTracer)
	}
	go func() {
		defer close(ckptDone)
		if v.w.checkpointEvery == 0 {
			return
		}
		tick := time.NewTicker(v.w.checkpointEvery)
		defer tick.Stop()
		for {
			select {
			case <-clientsDone:
				return
			case <-tick.C:
			}
			s := ckptTracer.start()
			if _, err := v.e.Checkpoint(); err != nil {
				ckptErr = fmt.Errorf("checkpoint: %w", err)
				stop.Store(true)
				return
			}
			ckptTracer.single(spCheckpoint, s)
		}
	}()

	r.active.Store(&clients)
	if ps.opsPerClient == 0 {
		time.Sleep(ps.dur)
		stop.Store(true)
	}
	wg.Wait()
	r.active.Store(nil)
	close(clientsDone)
	<-ckptDone
	out.elapsed = time.Duration(r.now() - begin)
	for _, c := range clients {
		c.release()
		out.userBytes += c.userBytes
		out.results += c.results
	}
	out.userBytes -= startBytes
	out.results -= startResults
	for _, err := range append(errs, ckptErr) {
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", ps.name, err)
		}
	}
	for i := range res {
		out.merge(&res[i])
	}
	out.succeeded = out.attempted
	for _, f := range out.failed {
		out.succeeded -= f
	}
	if ps.traced {
		out.trace = summarize(out.tracers)
	}
	return out, nil
}

func (r *phaseResult) merge(c *clientResult) {
	r.attempted += c.attempted
	for i := range r.failed {
		r.failed[i] += c.failed[i]
	}
	for i := range r.byKind {
		r.byKind[i] += c.byKind[i]
	}
	for i := range r.lat {
		r.lat[i].merge(&c.lat[i])
	}
	for len(r.windows) < len(c.windows) {
		r.windows = append(r.windows, 0)
	}
	for i, n := range c.windows {
		r.windows[i] += n
	}
}

// clientLoop is the closed loop of one client. An op's latency runs from
// the return of the previous op to its own return, so one clock reading
// per op times it; generating the next block of ops is kept outside.
func (r *run) clientLoop(c *client, gen *generator, ps phaseSpec, begin int64, stop *atomic.Bool, cr *clientResult) error {
	block := make([]op, opBlock)
	pos := len(block)
	t := r.now()
	for n := 0; !stop.Load() && (ps.opsPerClient == 0 || n < ps.opsPerClient); n++ {
		if pos == len(block) {
			gen.fill(block)
			pos = 0
			t = r.now()
		}
		o := block[pos]
		pos++
		err := c.exec(o)
		t2 := r.now()
		c.done.Store(int64(n + 1))
		if c.tr != nil {
			c.tr.finishOp(t, t2)
		}
		cr.attempted++
		if err != nil {
			k := failureKind(err)
			if k < 0 {
				return fmt.Errorf("client %d, %s: %w", c.id, opInfo[o.kind].name, err)
			}
			cr.failed[k]++
		} else {
			class := opInfo[o.kind].class
			cr.byKind[o.kind]++
			cr.lat[class].add(t2 - t)
			w := int((t2 - begin) / int64(time.Second))
			for len(cr.windows) <= w {
				cr.windows = append(cr.windows, 0)
			}
			cr.windows[w]++
		}
		t = t2
	}
	return nil
}

// clientSet returns the env's clients, made on first use: they live as
// long as the env, because each carries the bounds of the keys it has
// inserted and not yet deleted.
func (v *env) clientSet() []*client {
	if v.cl == nil {
		for i := 0; i < v.clients; i++ {
			v.cl = append(v.cl, newClient(v, i))
		}
	}
	return v.cl
}
