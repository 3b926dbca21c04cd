package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rld"
)

const (
	// setupReps is how many times a run compiles and opens the pipeline,
	// setupFirst of them before the run and the rest after it; setup_s is
	// the median.
	setupReps  = 21
	setupFirst = 11
	// resultBuffer is the Results subscription depth, in emissions: deep
	// enough that the drain goroutine falling behind for a moment (a GC
	// pause, a descheduling) drops nothing, since a drop fails the run.
	resultBuffer = 1 << 15
	// maxPending is the pipeline's default in-flight bound (inbox 1024 ×
	// 2 nodes); a rung whose backlog ends above a quarter of it fails.
	maxPending = 2048
	// rungSeconds and rungGap are each ladder rung's length and the idle
	// gap before it, in seconds of application time.
	rungSeconds = 1.0
	rungGap     = 0.25
	// crashSegment is the durable workload's crash-recover stretch at
	// nominal (0.5 s lead, 1 s down, 1.5 s settle); it comes out of the
	// ladder's budget.
	crashSegment = 3.0
	// segmentSeconds is the nominal phase's segment length.
	segmentSeconds = 1.0
	// settleTimeout bounds a wait for the pipeline to empty.
	settleTimeout = 30 * time.Second
)

// ladderStep is the geometric ladder's ratio between adjacent rungs; the
// ladder starts one step above nominal.
var ladderStep = math.Sqrt2

// tsample is one latency observation: n results with application
// timestamp ts received lat milliseconds after ts.
type tsample struct {
	ts, lat float64
	n       int64
}

// openLoop drives one Pipeline on a fixed schedule from one goroutine
// while another drains and checks its results. Application time is wall
// time since start: every ruster carries its due time as its timestamp.
type openLoop struct {
	pipe  *rld.Pipeline
	gen   *generator
	ck    *checker
	start time.Time
	due   float64

	sent, batches, ingestErrs int64
	// recoverEdge is the scripted recovery time (0 = none); recoverMS is
	// the wall time of the Ingest call that crossed it.
	recoverEdge, recoverMS float64
	pendingPeak            int64

	mu        sync.Mutex
	samples   []tsample // guarded by mu
	firstBad  error     // guarded by mu
	received  atomic.Int64
	unsound   atomic.Int64
	drainDone chan struct{}
}

func newOpenLoop(w *workload, pipe *rld.Pipeline, seed int64, start time.Time) *openLoop {
	o := &openLoop{
		pipe:      pipe,
		gen:       newGenerator(w, seed),
		ck:        newChecker(w),
		start:     start,
		drainDone: make(chan struct{}),
	}
	go o.drain()
	return o
}

// drain consumes the Results stream until Close ends it, checking every
// result and recording its latency.
func (o *openLoop) drain() {
	defer close(o.drainDone)
	var buf []tsample
	for rb := range o.pipe.Results() {
		now := time.Since(o.start).Seconds()
		buf = buf[:0]
		var bad error
		for _, j := range rb.Tuples {
			if err := o.ck.check(j); err != nil && bad == nil {
				bad = err
			}
			ts := float64(j.Ts)
			if n := len(buf); n > 0 && buf[n-1].ts == ts {
				buf[n-1].n++
			} else {
				buf = append(buf, tsample{ts: ts, lat: (now - ts) * 1000, n: 1})
			}
			// The consumer owns delivered results; releasing them
			// recycles them through the query's pool, as a long-running
			// consumer would.
			j.Release()
		}
		o.mu.Lock()
		o.samples = append(o.samples, buf...)
		if bad != nil && o.firstBad == nil {
			o.firstBad = bad
		}
		o.mu.Unlock()
		if bad != nil {
			o.unsound.Add(1)
		}
		o.received.Add(int64(len(rb.Tuples)))
	}
}

// phaseStats summarizes one stretch of the schedule at one rate.
type phaseStats struct {
	from, to float64 // application-time span of the phase's rusters
	tuples   int64
	// late holds the generator's lateness per ruster (ms), calls the
	// wall time of each Ingest call (µs).
	late, calls []float64
	pendingEnd  int64
	cpu         time.Duration
	allocs      uint64
}

// run emits rusters at rate for dur seconds of schedule, starting at the
// current due time.
func (o *openLoop) run(ctx context.Context, rate, dur float64) *phaseStats {
	ps := &phaseStats{from: o.due, to: o.due + dur}
	interval := rusterSize / rate
	cpu0, allocs0 := cpuTime(), heapAllocs()
	for k := 0; ; k++ {
		due := ps.from + float64(k)*interval
		if due >= ps.to {
			break
		}
		b := o.gen.next(due, rate)
		sleepUntil(o.start.Add(time.Duration(due * float64(time.Second))))
		t0 := time.Now()
		ps.late = append(ps.late, (t0.Sub(o.start).Seconds()-due)*1000)
		err := o.pipe.Ingest(ctx, b)
		call := time.Since(t0)
		b.Release()
		ps.calls = append(ps.calls, float64(call)/float64(time.Microsecond))
		if o.recoverEdge > 0 && due >= o.recoverEdge && o.due < o.recoverEdge {
			o.recoverMS = float64(call) / float64(time.Millisecond)
		}
		o.due = due
		o.batches++
		o.sent += rusterSize
		ps.tuples += rusterSize
		if err != nil {
			o.ingestErrs++
		}
		if k%16 == 0 {
			if p := o.pipe.Stats().Pending; p > o.pendingPeak {
				o.pendingPeak = p
			}
		}
	}
	ps.pendingEnd = o.pipe.Stats().Pending
	if ps.pendingEnd > o.pendingPeak {
		o.pendingPeak = ps.pendingEnd
	}
	ps.cpu, ps.allocs = cpuTime()-cpu0, heapAllocs()-allocs0
	o.due = ps.to
	return ps
}

// sleepUntil blocks until t. It uses nanosleep directly: the Go timer
// rounds sub-millisecond sleeps up to about a millisecond, which would put
// the generator a ruster interval behind schedule at the nominal rates.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// settle waits until every admitted ruster has left the pipeline and every
// result emitted so far has been drained.
func (o *openLoop) settle() error {
	deadline := time.Now().Add(settleTimeout)
	for {
		st := o.pipe.Stats()
		if st.Pending == 0 && (float64(o.received.Load()) >= st.Produced || st.ResultsDropped > 0) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pipeline did not settle in %v (pending %d)", settleTimeout, st.Pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// take removes and returns the latencies of results timestamped in
// [from, to), dropping older ones.
func (o *openLoop) take(from, to float64) []wsample {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []wsample
	keep := o.samples[:0]
	for _, s := range o.samples {
		switch {
		case s.ts >= to:
			keep = append(keep, s)
		case s.ts >= from:
			out = append(out, wsample{v: s.lat, n: s.n})
		}
	}
	o.samples = keep
	return out
}

// e2eResult is everything one untraced run reports.
type e2eResult struct {
	setup                  []float64
	p50, p99               float64
	p99OK                  bool
	latN                   int64
	cpuPerK, rss, lateMean float64
	allocsPerK             float64
	sustained              float64
	rungs                  []string
	recoverMS              float64
	attempted, failed      int64
	planSwitches           int
	problems               []string
}

// pipelineOptions returns the Open options for a workload; walDir is the
// WAL directory for this pipeline (durable only), fp its fault plan.
func pipelineOptions(w *workload, walDir string, fp *rld.FaultPlan) []rld.Option {
	opts := []rld.Option{rld.WithBufferedResults(resultBuffer)}
	if w.workers > 0 {
		opts = append(opts, rld.WithDistributed(w.workers))
	}
	if w.durable {
		opts = append(opts, rld.WithExactlyOnce(walDir), rld.WithFaults(fp))
	}
	return opts
}

// faultPlan scripts the durable workload's checkpoints and its one
// crash-recover of the join node, which starts crashAt seconds into the
// run and lasts one second.
func faultPlan(w *workload, dep *rld.Deployment, crashAt float64) (*rld.FaultPlan, error) {
	if !w.durable {
		return nil, nil
	}
	node := dep.Physical.Assign[1]
	return rld.ParseFaultPlan(fmt.Sprintf("crash:%d@%g-%g;mode=checkpoint;every=%d", node, crashAt, crashAt+1, ckptSeconds))
}

// openPipeline compiles the workload's deployment and opens its Pipeline,
// journaling under walDir on the durable workload.
func openPipeline(ctx context.Context, w *workload, walDir string, crashAt float64) (*rld.Pipeline, error) {
	dep, err := w.optimize()
	if err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	fp, err := faultPlan(w, dep, crashAt)
	if err != nil {
		return nil, err
	}
	pipe, err := rld.Open(ctx, dep, nil, pipelineOptions(w, walDir, fp)...)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	return pipe, nil
}

// openTimed opens the workload's pipeline n times and returns every
// set-up time; it closes each pipeline but, when keep is set, the last,
// which it returns. Each timed set-up starts after a garbage collection, so
// none pays for its predecessors' garbage, and the closed pipelines' logs
// are removed only after the last one. Pipelines are numbered from first,
// so each gets its own log directory under walRoot.
func openTimed(ctx context.Context, w *workload, walRoot string, crashAt float64, first, n int, keep bool) (*rld.Pipeline, []float64, error) {
	var times []float64
	var done []string
	defer func() {
		for _, dir := range done {
			os.RemoveAll(dir)
		}
	}()
	for i := first; i < first+n; i++ {
		dir := filepath.Join(walRoot, fmt.Sprintf("pipe-%d", i))
		runtime.GC()
		t0 := time.Now()
		pipe, err := openPipeline(ctx, w, dir, crashAt)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if keep && i == first+n-1 {
			return pipe, times, nil
		}
		if _, err := pipe.Close(ctx); err != nil {
			return nil, nil, fmt.Errorf("close: %w", err)
		}
		done = append(done, dir)
	}
	return nil, times, nil
}

// schedule splits a run of the given measured seconds into the nominal
// phase and the ladder budget.
func schedule(w *workload, seconds float64) (nominal, ladder, crashAt float64) {
	nominal = 0.7 * seconds
	ladder = seconds - nominal
	if w.durable {
		ladder -= crashSegment
	}
	crashAt = windowSeconds + nominal + 0.5
	return nominal, ladder, crashAt
}

// runE2E is the untraced run: set-up, warm-up, the nominal phase, the
// durable workload's crash-recover, then the sustained-rate ladder.
func runE2E(ctx context.Context, w *workload, seed int64, seconds float64, walRoot string) (*e2eResult, error) {
	res := &e2eResult{}
	nomDur, ladderDur, crashAt := schedule(w, seconds)
	// Set-up is timed at both ends of the run, so its median spans the
	// host's state over the run rather than over a few milliseconds.
	pipe, setups, err := openTimed(ctx, w, walRoot, crashAt, 0, setupFirst, true)
	if err != nil {
		return nil, err
	}
	res.setup = setups
	o := newOpenLoop(w, pipe, seed, time.Now())
	closed := false
	defer func() {
		if !closed {
			pipe.Close(ctx)
			<-o.drainDone
		}
	}()

	// Warm-up: fill the windows once.
	o.run(ctx, w.nominal, windowSeconds)
	if err := o.settle(); err != nil {
		return nil, err
	}
	o.take(0, o.due)

	// Nominal phase, in segments of about a second: p50 and CPU are the
	// medians of the segments' figures, so a transient disturbance of the
	// host moves one segment rather than the result.
	nseg := max(1, int(math.Round(nomDur/segmentSeconds)))
	var segs []*phaseStats
	for i := 0; i < nseg; i++ {
		segs = append(segs, o.run(ctx, w.nominal, nomDur/float64(nseg)))
	}
	res.rss = peakRSSMB()
	if err := o.settle(); err != nil {
		return nil, err
	}
	var all []wsample
	var p50s, cpus, allocs, late []float64
	nominalOK := true
	for _, sg := range segs {
		lat := o.take(sg.from, sg.to)
		if p, ok := percentile(lat, 0.50); ok {
			p50s = append(p50s, p)
		}
		cpus = append(cpus, float64(sg.cpu)/float64(time.Millisecond)/(float64(sg.tuples)/1000))
		allocs = append(allocs, float64(sg.allocs)/(float64(sg.tuples)/1000))
		all = append(all, lat...)
		late = append(late, sg.late...)
		nominalOK = nominalOK && bounded(sg, w)
	}
	for _, s := range all {
		res.latN += s.n
	}
	res.p50 = median(p50s)
	res.cpuPerK = median(cpus)
	res.allocsPerK = median(allocs)
	res.p99, res.p99OK = percentile(all, 0.99)
	var lateSum float64
	for _, l := range late {
		lateSum += l
	}
	res.lateMean = lateSum / float64(len(late))
	if res.p99OK && res.p99 < w.p99LimitMS && nominalOK {
		res.sustained = w.nominal
	}

	if w.durable {
		o.recoverEdge = crashAt + 1
		o.run(ctx, w.nominal, crashSegment)
		if err := o.settle(); err != nil {
			return nil, err
		}
		o.take(0, o.due)
		res.recoverMS = o.recoverMS
	}

	// Ladder: rungs above nominal until one misses the latency limit or
	// lets the backlog grow. A run that failed at nominal sustains
	// nothing, whatever a rung above it does.
	if res.sustained == 0 {
		res.rungs = append(res.rungs, "skipped:nominal failed")
		ladderDur = 0
	}
	for i := 1; ladderDur >= rungGap+rungSeconds; i++ {
		ladderDur -= rungGap + rungSeconds
		rate := w.nominal * math.Pow(ladderStep, float64(i))
		o.due += rungGap // idle: the pipeline settles before the rung
		rung := o.run(ctx, rate, rungSeconds)
		if err := o.settle(); err != nil {
			return nil, err
		}
		lat := o.take(rung.from, rung.to)
		p99, ok := percentile(lat, 0.99)
		pass := ok && p99 < w.p99LimitMS && bounded(rung, w)
		verdict := "fail"
		if pass {
			verdict = "pass"
		}
		res.rungs = append(res.rungs, fmt.Sprintf("%.0f/s:p99=%.2fms,maxlate=%.2fms,pending=%d:%s",
			rate, p99, maxOf(rung.late), rung.pendingEnd, verdict))
		if !pass {
			break
		}
		res.sustained = rate
	}

	st := pipe.Stats()
	res.planSwitches = st.PlanSwitches
	rep, err := pipe.Close(ctx)
	closed = true
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	<-o.drainDone
	st = pipe.Stats()
	res.attempted = o.batches
	res.failed, res.problems = o.failures(rep, st)
	_, setups, err = openTimed(ctx, w, walRoot, crashAt, setupFirst, setupReps-setupFirst, false)
	if err != nil {
		return nil, err
	}
	res.setup = append(res.setup, setups...)
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// bounded reports whether a phase ended without a backlog: at its last
// ruster the generator was back within the latency limit of its schedule,
// and the in-flight count ended low. A stall the phase recovered from is
// not a backlog; its cost shows in the phase's latency instead.
func bounded(ps *phaseStats, w *workload) bool {
	n := len(ps.late)
	return n > 0 && ps.late[n-1] < w.p99LimitMS && ps.pendingEnd <= maxPending/4
}

// failures counts failed batches and lists what went wrong: Ingest
// errors, dropped result emissions, emissions with an unsound result,
// lost tuples, and an ingested count that differs from what was sent.
func (o *openLoop) failures(rep *rld.Report, st rld.PipelineStats) (int64, []string) {
	var problems []string
	failed := o.ingestErrs + st.ResultsDropped + o.unsound.Load()
	if o.ingestErrs > 0 {
		problems = append(problems, fmt.Sprintf("%d Ingest calls failed", o.ingestErrs))
	}
	if st.ResultsDropped > 0 {
		problems = append(problems, fmt.Sprintf("%d result emissions dropped", st.ResultsDropped))
	}
	if n := o.unsound.Load(); n > 0 {
		o.mu.Lock()
		problems = append(problems, fmt.Sprintf("%d emissions held unsound results, first: %v", n, o.firstBad))
		o.mu.Unlock()
	}
	if rep.TuplesLost > 0 {
		failed += int64(math.Ceil(rep.TuplesLost / rusterSize))
		problems = append(problems, fmt.Sprintf("%.0f tuples lost", rep.TuplesLost))
	}
	if rep.Ingested != float64(o.sent) {
		problems = append(problems, fmt.Sprintf("report ingested %.0f tuples, sent %d", rep.Ingested, o.sent))
	}
	if float64(o.received.Load()) != rep.Produced {
		problems = append(problems, fmt.Sprintf("received %d results, report produced %.0f", o.received.Load(), rep.Produced))
	}
	return failed, problems
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
