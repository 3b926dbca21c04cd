package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rld/internal/chaos"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
	"rld/internal/stream"
)

// SessionOptions configures an engine session.
type SessionOptions struct {
	// Config tunes the underlying engine (workers, shards, fanout, inbox).
	Config Config
	// TickEvery is the control (Rebalance) period in virtual seconds
	// (default 5, matching the simulator's default).
	TickEvery float64
	// Faults is an optional scripted fault schedule applied as the
	// session's virtual clock advances. Nil runs fault-free.
	Faults *chaos.FaultPlan
	// Horizon is the virtual-time end in seconds used to finalize fault
	// accounting at Close (0: the clock's high-water mark).
	Horizon float64
	// ResultBuffer is the Results subscription buffer; 0 disables result
	// delivery entirely (the sink only counts).
	ResultBuffer int
	// EventBuffer is the Events subscription buffer (default 64).
	EventBuffer int
	// MaxPending bounds in-flight messages for backpressure: Ingest
	// blocks and TryIngest rejects while the pipeline holds this many.
	// With concurrent producers the bound is approximate — each producer
	// can admit one batch past it before observing the others. <= 0
	// disables the bound (the replay Executor's historical mode).
	MaxPending int
}

// Session is the live engine's implementation of runtime.Session: a
// long-lived streaming run over a real sharded multi-worker engine. The
// virtual clock advances with ingested batch timestamps; control ticks,
// scripted faults, and checkpoints fire as the clock passes their edges —
// exactly the protocol the batch-replay Executor used to run inline, now
// available to concurrent callers with backpressure, result/event
// subscriptions, live stats, and policy hot-swap.
//
// Admission is concurrent: only the session protocol itself — clock
// edges (ticks, faults, checkpoints), policy calls, and control ops — is
// serialized. Producers on the fast path (no edge crossed) share a read
// lock and run Leader.Ingest in parallel, so ingest throughput scales
// with producer count instead of funneling through one mutex.
type Session struct {
	e         *Leader
	substrate string
	q         *query.Query
	opts      SessionOptions
	tick      float64
	mode      chaos.RecoveryMode

	maxPending int64
	start      time.Time

	// vnow is the virtual clock (float64 bits, advanced by lock-free
	// CAS-max from concurrent producers).
	vnow atomic.Uint64
	// nextEdge caches the earliest upcoming tick/checkpoint/fault edge
	// (float64 bits): a batch whose timestamp stays below it takes the
	// lock-free fast path; crossing it takes mu and runs the serialized
	// session protocol.
	nextEdge atomic.Uint64
	// closing gates Ingest/TryIngest without taking mu.
	closing atomic.Bool
	// closeCh closes when Close begins, waking producers blocked on
	// backpressure promptly instead of at their next poll.
	closeCh chan struct{}

	results        chan runtime.ResultBatch
	events         chan runtime.Event
	resultsDropped atomic.Int64
	eventsDropped  atomic.Int64

	// mu serializes the session's control protocol: tick and fault
	// cursors, control ops, stats snapshots, and close. Fast-path
	// admission holds the read side, so control decisions still exclude
	// all in-flight admissions (a tick's Drain settles a quiesced
	// pipeline), while admissions exclude only each other's edges.
	mu          sync.RWMutex
	lastPlanKey string
	nextTick    float64
	cursor      *chaos.Cursor
	nextCkpt    float64
	downSince   map[int]float64
	downSeconds float64
	migrations  int
	downtime    float64
	swaps       int
	closed      bool

	// done is set at construction and never reassigned; it closes as
	// finish's last act, after report is published under mu, so a
	// receiver needs no lock for the channel itself and sees report via
	// the close's happens-before edge.
	done chan struct{}

	// polMu serializes policy calls from concurrent fast-path producers
	// (the Policy contract promises implementations a single caller) and
	// guards the overhead accumulator. pol is written under both mu and
	// polMu, so a reader holding either sees a settled value.
	polMu    sync.Mutex
	pol      runtime.Policy //rldlint:guardedby polMu
	overhead float64        //rldlint:guardedby polMu

	report *runtime.Report //rldlint:guardedby mu
}

// OpenSession starts a live-engine session executing q across nNodes nodes
// under pol. The session is running on return; Close shuts it down.
func OpenSession(q *query.Query, nNodes int, pol runtime.Policy, opts SessionOptions) (*Session, error) {
	if q == nil {
		return nil, fmt.Errorf("engine: session needs a query")
	}
	if pol == nil {
		return nil, fmt.Errorf("engine: session needs a policy")
	}
	e, err := New(q, pol.Placement(), nNodes, nil, opts.Config)
	if err != nil {
		return nil, err
	}
	return OpenSessionOn(e, "engine", pol, opts)
}

// OpenSessionOn runs the full session protocol over an unstarted Leader:
// netrt builds one over its worker processes and hands it here, so the wire
// substrate inherits the virtual clock, tick/fault/checkpoint edges,
// backpressure, and result/event plumbing verbatim. The session installs
// its chooser, clock, and result tap, then starts the leader. On error the
// leader is stopped, releasing its transport.
func OpenSessionOn(l *Leader, substrate string, pol runtime.Policy, opts SessionOptions) (*Session, error) {
	if pol == nil {
		l.Stop()
		return nil, fmt.Errorf("engine: session needs a policy")
	}
	if err := opts.Faults.Validate(l.Nodes()); err != nil {
		l.Stop()
		return nil, fmt.Errorf("engine: %w", err)
	}
	s := &Session{
		e:          l,
		substrate:  substrate,
		q:          l.q,
		opts:       opts,
		tick:       opts.TickEvery,
		mode:       chaos.Checkpoint,
		maxPending: int64(opts.MaxPending),
		start:      time.Now(), //rldlint:allow wallclock -- Result.WallSeconds reports host wall time by contract
		pol:        pol,
		downSince:  make(map[int]float64),
		nextCkpt:   math.Inf(1),
		closeCh:    make(chan struct{}),
		done:       make(chan struct{}),
	}
	if s.tick <= 0 {
		s.tick = 5
	}
	s.nextTick = s.tick
	if !opts.Faults.Empty() {
		s.cursor = opts.Faults.Cursor()
		s.mode = opts.Faults.Mode
		if opts.Faults.Mode == chaos.Checkpoint {
			s.nextCkpt = opts.Faults.SnapshotEvery()
		}
	}
	s.recomputeEdgeLocked()
	evBuf := opts.EventBuffer
	if evBuf <= 0 {
		evBuf = 64
	}
	s.events = make(chan runtime.Event, evBuf)
	// The chooser runs synchronously inside Leader.Ingest, possibly from
	// many producers at once; polMu serializes the policy call and the
	// plan-switch tracking, honoring the Policy contract's serial-caller
	// promise.
	l.SetChooser(ChooserFunc(func(snap stats.Snapshot) query.Plan {
		s.polMu.Lock()
		defer s.polMu.Unlock()
		plan := s.pol.PlanFor(s.now(), snap)
		if plan != nil {
			if k := plan.Key(); k != s.lastPlanKey {
				if s.lastPlanKey != "" {
					s.emit(runtime.Event{Kind: runtime.EventPlanSwitch, T: s.now(), Node: -1, Op: -1, Plan: k})
				}
				s.lastPlanKey = k
			}
		}
		return plan
	}))
	l.SetTimeSource(s.now)
	if opts.ResultBuffer > 0 {
		s.results = make(chan runtime.ResultBatch, opts.ResultBuffer)
		l.SetResultObserver(s.observeResult)
	}
	l.Start()
	return s, nil
}

// Substrate implements runtime.Session.
func (s *Session) Substrate() string { return s.substrate }

// Results implements runtime.Session.
func (s *Session) Results() <-chan runtime.ResultBatch { return s.results }

// Events implements runtime.Session.
func (s *Session) Events() <-chan runtime.Event { return s.events }

// observeResult is the engine's sink tap: it copies the emission out of the
// pooled pipeline slice and delivers it without blocking the worker.
func (s *Session) observeResult(tuples []*stream.Joined, _ time.Time) {
	cp := make([]*stream.Joined, len(tuples))
	copy(cp, tuples)
	rb := runtime.ResultBatch{
		T:      s.now(),
		Count:  float64(len(cp)),
		Tuples: cp,
	}
	select {
	case s.results <- rb:
	default:
		s.resultsDropped.Add(1)
	}
}

// emit delivers an event without blocking. Callers hold mu (either side)
// or polMu, and Close only closes the channel once every admission and
// control path has drained, so emission never races the close.
func (s *Session) emit(ev runtime.Event) {
	select {
	case s.events <- ev:
	default:
		s.eventsDropped.Add(1)
	}
}

// now reads the virtual clock.
func (s *Session) now() float64 { return math.Float64frombits(s.vnow.Load()) }

// advanceNow lifts the virtual clock to at least t — a lock-free CAS-max,
// so concurrent producers with out-of-order timestamps never move it
// backwards. (Non-negative float64 bit patterns order like the floats.)
func (s *Session) advanceNow(t float64) {
	bits := math.Float64bits(t)
	for {
		old := s.vnow.Load()
		if old >= bits || s.vnow.CompareAndSwap(old, bits) {
			return
		}
	}
}

// edge reads the cached next tick/checkpoint/fault edge.
func (s *Session) edge() float64 { return math.Float64frombits(s.nextEdge.Load()) }

// recomputeEdgeLocked refreshes the cached earliest edge after the control
// path consumed one. Caller holds mu (write) — or runs before the session
// is visible.
func (s *Session) recomputeEdgeLocked() {
	edge := s.nextTick
	if s.nextCkpt < edge {
		edge = s.nextCkpt
	}
	if s.cursor != nil {
		if t, ok := s.cursor.Peek(); ok && t < edge {
			edge = t
		}
	}
	s.nextEdge.Store(math.Float64bits(edge))
}

// applyFaults fires checkpoints and scripted fault edges the clock has
// passed, in the same order the batch-replay executor used: snapshot
// first, so a crash at the same boundary sees the freshest state. Caller
// holds mu.
func (s *Session) applyFaults(now float64) {
	if now >= s.nextCkpt {
		s.e.Checkpoint()
		s.emit(runtime.Event{Kind: runtime.EventCheckpoint, T: now, Node: -1, Op: -1})
		for now >= s.nextCkpt {
			s.nextCkpt += s.opts.Faults.SnapshotEvery()
		}
	}
	if s.cursor == nil {
		return
	}
	for _, ev := range s.cursor.Advance(now) {
		f := ev.Fault
		switch {
		case f.Kind == chaos.Crash && ev.Begin:
			// Guard on downSince, not the Crash error: Crash returns nil
			// for an already-down node (e.g. crashed manually through the
			// session), and double-booking would corrupt the downtime
			// accounting and duplicate the event.
			if err := s.e.Crash(f.Node, s.mode); err == nil {
				if _, dn := s.downSince[f.Node]; !dn {
					s.downSince[f.Node] = ev.T
					s.emit(runtime.Event{Kind: runtime.EventCrash, T: ev.T, Node: f.Node, Op: -1})
				}
			}
		case f.Kind == chaos.Crash && !ev.Begin:
			// Same guard on the way up: a scripted recovery edge for a
			// node the caller already recovered must be a no-op, not a
			// phantom downtime interval.
			if err := s.e.Recover(f.Node); err == nil {
				if since, dn := s.downSince[f.Node]; dn {
					s.downSeconds += ev.T - since
					delete(s.downSince, f.Node)
					s.emit(runtime.Event{Kind: runtime.EventRecovery, T: ev.T, Node: f.Node, Op: -1})
				}
			}
		case f.Kind == chaos.Slowdown && ev.Begin:
			s.e.SetSlowdown(f.Node, f.Factor)
			s.emit(runtime.Event{Kind: runtime.EventSlowdown, T: ev.T, Node: f.Node, Op: -1, Factor: f.Factor})
		case f.Kind == chaos.Slowdown && !ev.Begin:
			s.e.SetSlowdown(f.Node, 1)
			s.emit(runtime.Event{Kind: runtime.EventSlowdown, T: ev.T, Node: f.Node, Op: -1, Factor: 1})
		}
	}
}

// addOverhead accounts the policy's per-batch classification work.
func (s *Session) addOverhead() {
	s.polMu.Lock()
	s.overhead += s.pol.ClassifyOverhead()
	s.polMu.Unlock()
}

// ingest is the admission path. Batches that stay below the next
// tick/fault/checkpoint edge take the fast path: advance the clock with a
// CAS-max and run Leader.Ingest (safe for concurrent use) under the read
// lock, in parallel with other producers. A batch that crosses an edge
// takes the write lock and runs the serialized session protocol — fire due
// faults, admit, run due control ticks — excluding all concurrent
// admissions for exactly the span of the edge.
func (s *Session) ingest(b *stream.Batch) error {
	ts := float64(b.LastTs())
	if ts < s.edge() {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.closed {
			return runtime.ErrClosed
		}
		s.advanceNow(ts)
		err := s.e.Ingest(b)
		if err == nil {
			s.addOverhead()
		}
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	s.advanceNow(ts)
	now := s.now()
	s.applyFaults(now)
	defer s.recomputeEdgeLocked()
	if err := s.e.Ingest(b); err != nil {
		return err
	}
	s.addOverhead()
	if now >= s.nextTick {
		// Sample queue depths BEFORE draining: Drain empties every queue,
		// so a post-drain sample would always show zero load and
		// imbalance-triggered policies (DYN) could never fire. One sample
		// covers all catch-up ticks below.
		loads := s.e.NodeLoads()
		// Settle in-flight work before the control decision: this bounds
		// the skew between ingestion and processing to one tick of
		// virtual time. The write lock holds new admissions out, so the
		// drain is of a quiescing pipeline and cannot be starved.
		s.e.Drain()
		for now >= s.nextTick {
			s.polMu.Lock()
			s.overhead += s.pol.DecisionOverhead()
			s.polMu.Unlock()
			assign := s.e.Assignment()
			//rldlint:allow guardedby -- pol writes hold mu too, and the tick runs under mu's write side with admissions fenced out, so no concurrent policy caller exists
			if mig := s.pol.Rebalance(s.nextTick, loads, assign); mig != nil {
				// Same-node requests are no-ops and not counted, matching
				// the simulator's accounting.
				if mig.Op >= 0 && mig.Op < len(assign) && assign[mig.Op] != mig.To {
					if err := s.e.Migrate(mig.Op, mig.To); err == nil {
						s.migrations++
						s.downtime += mig.Downtime
						s.emit(runtime.Event{Kind: runtime.EventMigration, T: s.nextTick, Node: mig.To, Op: mig.Op})
					}
				}
			}
			s.nextTick += s.tick
		}
	}
	return nil
}

// ready reports whether the pipeline has room for another batch.
func (s *Session) ready() bool {
	return s.maxPending <= 0 || s.e.Pending() < s.maxPending
}

// Ingest implements runtime.Session: it blocks while the pipeline holds
// MaxPending in-flight messages, until the context ends or the session
// closes. The wait is event-driven: workers signal every pending-count
// decrement, so a blocked producer wakes as soon as capacity frees (and
// Close or context cancellation wakes it immediately) instead of on a
// poll tick.
func (s *Session) Ingest(ctx context.Context, b *stream.Batch) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.closing.Load() {
			return runtime.ErrClosed
		}
		if s.ready() {
			return s.ingest(b)
		}
		if err := s.e.AwaitPending(ctx, s.maxPending, s.closeCh); err != nil {
			return err
		}
	}
}

// TryIngest implements runtime.Session.
func (s *Session) TryIngest(b *stream.Batch) error {
	if s.closing.Load() {
		return runtime.ErrClosed
	}
	if !s.ready() {
		return runtime.ErrBackpressure
	}
	return s.ingest(b)
}

// SwapPolicy implements runtime.Session: subsequent batches classify under
// pol and subsequent ticks call its Rebalance. The live placement is kept;
// the new policy inherits it.
func (s *Session) SwapPolicy(pol runtime.Policy) error {
	if pol == nil {
		return fmt.Errorf("engine: nil policy")
	}
	if p := pol.Placement(); len(p) != len(s.q.Ops) {
		return fmt.Errorf("%w: policy %s covers %d of %d ops", ErrBadPlacement, pol.Name(), len(p), len(s.q.Ops))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	s.polMu.Lock()
	s.pol = pol
	s.polMu.Unlock()
	s.swaps++
	s.emit(runtime.Event{Kind: runtime.EventPolicySwap, T: s.now(), Node: -1, Op: -1, Policy: pol.Name()})
	return nil
}

// Migrate implements runtime.Session: an operator relocation outside any
// policy's Rebalance decision (operations tooling, tests).
func (s *Session) Migrate(op, node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	assign := s.e.Assignment()
	if op >= 0 && op < len(assign) && assign[op] == node {
		return nil
	}
	if err := s.e.Migrate(op, node); err != nil {
		return err
	}
	s.migrations++
	s.emit(runtime.Event{Kind: runtime.EventMigration, T: s.now(), Node: node, Op: op})
	return nil
}

// Crash implements runtime.Session: takes the node down exactly as a
// scripted fault beginning now would, under the session's recovery mode.
func (s *Session) Crash(node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	if err := s.e.Crash(node, s.mode); err != nil {
		return err
	}
	if _, dn := s.downSince[node]; !dn {
		s.downSince[node] = s.now()
		s.emit(runtime.Event{Kind: runtime.EventCrash, T: s.now(), Node: node, Op: -1})
	}
	return nil
}

// Recover implements runtime.Session.
func (s *Session) Recover(node int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return runtime.ErrClosed
	}
	if err := s.e.Recover(node); err != nil {
		return err
	}
	if since, dn := s.downSince[node]; dn {
		s.downSeconds += s.now() - since
		delete(s.downSince, node)
		s.emit(runtime.Event{Kind: runtime.EventRecovery, T: s.now(), Node: node, Op: -1})
	}
	return nil
}

// Stats implements runtime.Session. The counter snapshot is taken under
// the session's write lock, excluding all in-flight admissions, so the
// admission-side fields (VirtualTime, Ingested, Batches, Migrations,
// PolicySwaps) are mutually consistent; worker-side counters (Produced,
// Pending, TuplesLost) may still trail by whatever the pipeline holds.
func (s *Session) Stats() runtime.SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.e.Counters()
	now := s.now()
	ds := s.downSeconds
	for _, since := range s.downSince {
		if now > since {
			ds += now - since
		}
	}
	s.polMu.Lock()
	polName := s.pol.Name()
	s.polMu.Unlock()
	return runtime.SessionStats{
		Policy:         polName,
		Substrate:      s.substrate,
		VirtualTime:    now,
		Ingested:       float64(c.Ingested),
		Produced:       float64(c.Produced),
		TuplesLost:     float64(c.TuplesLost),
		Batches:        c.Batches,
		Pending:        c.Pending,
		PlanSwitches:   c.PlanSwitches,
		PolicySwaps:    s.swaps,
		Migrations:     s.migrations,
		Crashes:        c.Crashes,
		Restores:       c.Restores,
		DownSeconds:    ds,
		ResultsDropped: s.resultsDropped.Load(),
		EventsDropped:  s.eventsDropped.Load(),
	}
}

// Close implements runtime.Session: fire the remaining scripted faults up
// to the horizon, finalize downtime, drain in-flight work, stop the
// engine, and return the final report. Producers blocked on backpressure
// are woken immediately with ErrClosed. When ctx ends before the drain
// completes, Close returns ctx.Err() and the shutdown finishes in the
// background; later Close calls wait for it and return the stored report.
func (s *Session) Close(ctx context.Context) (*runtime.Report, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		select {
		case <-s.done:
			//rldlint:allow guardedby -- report is written under mu before done closes; the close's happens-before edge covers this read
			return s.report, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.closed = true
	s.closing.Store(true)
	close(s.closeCh)
	// The feed is over; fire the remaining fault events up to the horizon
	// (the simulator fires them as discrete events regardless of
	// arrivals). A node whose scripted recovery lies beyond the horizon
	// stays down — Stop counts its parked backlog as lost; only its
	// downtime is finalized here.
	end := s.opts.Horizon
	if n := s.now(); end < n {
		end = n
	}
	s.applyFaults(end)
	for _, since := range s.downSince {
		s.downSeconds += end - since
	}
	s.downSince = make(map[int]float64)
	pol := s.pol //rldlint:allow guardedby -- pol writes hold mu too; this read holds mu's write side
	s.mu.Unlock()

	finish := func() *runtime.Report {
		res := s.e.Stop()
		s.mu.Lock()
		s.polMu.Lock()
		overhead := s.overhead
		s.polMu.Unlock()
		rep := &runtime.Report{
			Policy:            pol.Name(),
			Substrate:         s.substrate,
			Ingested:          float64(res.Ingested),
			Produced:          float64(res.Produced),
			Batches:           res.Batches,
			MeanLatencyMS:     res.MeanLatencyMS,
			PlanUse:           res.PlanUse,
			PlanSwitches:      res.PlanSwitches,
			Migrations:        s.migrations,
			MigrationDowntime: s.downtime,
			OverheadWork:      overhead,
			WallSeconds:       time.Since(s.start).Seconds(), //rldlint:allow wallclock -- host wall time by contract
			Crashes:           res.Crashes,
			DownSeconds:       s.downSeconds,
			TuplesLost:        float64(res.TuplesLost),
			Restores:          res.Restores,
		}
		s.report = rep
		s.mu.Unlock()
		if s.results != nil {
			close(s.results)
		}
		close(s.events)
		close(s.done)
		return rep
	}

	// Context-aware drain: Stop would drain unconditionally, so wait here
	// where the deadline can interrupt. Event-driven — the last sinking
	// message wakes this immediately.
	if err := s.e.AwaitPending(ctx, 1, nil); err != nil {
		//rldlint:allow unboundedgo -- detached Stop-drain after ctx deadline; bounded by Stop's own drain timeout
		go finish()
		return nil, err
	}
	return finish(), nil
}

var _ runtime.Session = (*Session)(nil)
