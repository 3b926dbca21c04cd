package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/runtime"
	"rld/internal/stats"
	"rld/internal/stream"
)

// Transport is the distribution layer under a Leader: where operator window
// state lives and how a stage reaches it. The Leader owns everything else —
// admission, plan choice, statistics, the per-node queues, the routing
// table, checkpoint snapshots and the failure lifecycle — so the in-process
// worker pools (New) and netrt's worker processes differ only here.
type Transport interface {
	// Consumers is the number of goroutines draining each node's queue
	// (Config.Workers in-process, 1 per connection over TCP).
	Consumers() int
	// Launch starts the transport's background work. Failures it detects
	// on its own (a dead process, a missed heartbeat) are reported through
	// l.NodeFailed.
	Launch(l *Leader)
	// InsertWindows applies b to the join windows of its stream's
	// operators under the routing table assign. An error leaves no trace,
	// so the batch can be retried.
	InsertWindows(b *stream.Batch, assign physical.Assignment) error
	// RunStage runs operator op on node over partials. On success the
	// input is consumed and in/hit are this call's selectivity sample (see
	// NodeCore.RunStage); on error the input is untouched and the node is
	// lost.
	RunStage(node, op int, partials []*stream.Joined) (out []*stream.Joined, in, hit int64, err error)
	// Snapshot copies op's window state off node (nil when unavailable).
	Snapshot(node, op int) *stream.Batch
	// Move transfers op's window state from one node to another ahead of a
	// routing change; saved is the last checkpoint's copy, the fallback
	// when the source cannot supply one.
	Move(op, from, to int, saved *stream.Batch)
	// Kill takes a node's execution resources down (Crash).
	Kill(node int)
	// Respawn rebuilds a crashed node: the join operators ops it hosts get
	// their window state from snaps under chaos.Checkpoint (nil snaps: no
	// checkpoint was ever taken) and start empty under chaos.LoseState.
	Respawn(node int, mode chaos.RecoveryMode, ops []int, snaps []*stream.Batch) error
	// Barrier brackets a checkpoint: it cuts the durable log, runs pull
	// (which snapshots every join operator and reports the nodes that
	// failed to supply one), and drops the log prefix the snapshots cover
	// on every node that succeeded.
	Barrier(pull func() (failed []bool))
	// Slow runs a node's stages at the given capacity factor (1 = full).
	Slow(node int, factor float64)
	// Close releases the transport after the last stage has run.
	Close()
}

// statsEvery is the offerStats sampling period in batches.
const statsEvery = 8

// message is one batch at one pipeline stage.
type message struct {
	partials []*stream.Joined
	plan     query.Plan
	stage    int
	ingress  time.Time
}

var msgPool = sync.Pool{New: func() any { return new(message) }}

// resultObserver receives every non-empty sink emission: the batch's
// surviving result tuples and its ingress wall time. Observers run on
// consumer goroutines and must copy anything they retain — the slice is
// recycled after the call.
type resultObserver func(tuples []*stream.Joined, ingress time.Time)

// node is one node's FIFO work queue and failure state. jobs[head:] is the
// queue: senders append and ring the doorbell, and up to active of the
// node's consumers pop from the head, so per-stage arrival order holds and
// a consumer forwarding to a saturated node never blocks.
type node struct {
	// queued counts queued and in-service messages (NodeLoads).
	queued atomic.Int64
	// notify is the consumers' 1-buffered doorbell. It is set at
	// construction and never replaced; a consumer that pops while work
	// remains rings it again, so one token wakes the consumers in turn.
	notify chan struct{}
	wg     sync.WaitGroup

	mu sync.Mutex // guards everything below
	// down marks a crashed node: its queue has been swept (parked for
	// replay in Checkpoint mode, destroyed in LoseState), and sends park
	// or lose directly. The down check and the enqueue share mu, so no
	// message slips into a swept queue.
	down   bool               //rldlint:guardedby mu
	mode   chaos.RecoveryMode //rldlint:guardedby mu
	parked []*message         //rldlint:guardedby mu
	jobs   []*message         //rldlint:guardedby mu
	head   int                //rldlint:guardedby mu
	// active is how many consumers may pop: consumers with index ≥ active
	// are paused by a slowdown and wait on wake, which is closed and
	// replaced whenever active changes.
	active int           //rldlint:guardedby mu
	slow   float64       //rldlint:guardedby mu
	wake   chan struct{} //rldlint:guardedby mu
	// quit retires the current consumer generation when closed.
	quit chan struct{} //rldlint:guardedby mu
}

// ring leaves a token on the doorbell unless one is already there.
func (n *node) ring() {
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

// pop takes the next message for consumer idx, blocking until one arrives
// or quit closes (then nil).
func (n *node) pop(idx int, quit <-chan struct{}) *message {
	for {
		select {
		case <-quit:
			return nil
		default:
		}
		n.mu.Lock()
		if idx >= n.active {
			wake := n.wake
			if n.head < len(n.jobs) {
				n.ring() // a paused consumer must not swallow the token
			}
			n.mu.Unlock()
			select {
			case <-quit:
				return nil
			case <-wake:
			}
			continue
		}
		if n.head < len(n.jobs) {
			m := n.jobs[n.head]
			n.jobs[n.head] = nil
			n.head++
			switch {
			case n.head == len(n.jobs):
				n.jobs, n.head = n.jobs[:0], 0
			default:
				n.ring()
				// Compact a mostly consumed queue so the backing array
				// does not grow without bound while it never empties.
				if n.head >= 256 && 2*n.head >= len(n.jobs) {
					k := copy(n.jobs, n.jobs[n.head:])
					clear(n.jobs[k:])
					n.jobs, n.head = n.jobs[:k], 0
				}
			}
			n.mu.Unlock()
			return m
		}
		n.mu.Unlock()
		select {
		case <-quit:
			return nil
		case <-n.notify:
		}
	}
}

// internedPlan is one cached, validated plan and its routing key.
type internedPlan struct {
	plan query.Plan
	key  string
}

// maxInterned caps the plan cache; a chooser cycling through more distinct
// plans than this falls back to the uncached path.
const maxInterned = 1024

// Leader is the RLD runtime's classifier-router over a Transport: it admits
// batches, picks each batch's plan from the statistics it monitors, queues
// every stage on the node hosting its operator, and runs the failure
// lifecycle. New builds one over in-process worker pools; netrt builds one
// over worker processes.
type Leader struct {
	q       *query.Query
	t       Transport
	chooser PlanChooser
	monitor *stats.Monitor
	// core supplies the join schema and result pools, and accumulates the
	// observed-selectivity samples every stage reports. In-process it also
	// holds all window state; over TCP its windows stay empty.
	core *NodeCore

	// assign is the live routing table (operator → node). Reads are
	// lock-free; Migrate swaps in a cloned copy (single logical writer:
	// the control loop).
	assign atomic.Pointer[physical.Assignment]
	nodes  []*node

	pending     atomic.Int64 // in-flight messages, for Drain/backpressure
	produced    atomic.Int64
	latencyNano atomic.Int64 // summed batch ingress→sink latency
	statBatches atomic.Int64 // offerStats rate limiter
	lost        atomic.Int64 // partial results destroyed by faults
	restores    atomic.Int64 // checkpoint-restores on recovery
	crashes     atomic.Int64 // Crash calls applied
	downCount   atomic.Int32 // nodes currently down, for the all-down check

	// resultObs, when set, taps every non-empty sink emission (sessions
	// subscribe result streams through it).
	resultObs atomic.Pointer[resultObserver]

	// snapCache is the monitor snapshot handed to the per-batch plan
	// chooser. Monitor state changes only on Offer, so refreshing the
	// cache after every Offer is exactly equivalent to (and far cheaper
	// than) cloning a snapshot per Ingest. Choosers must treat it as
	// read-only.
	snapCache atomic.Pointer[stats.Snapshot]

	// timeSource, when set, supplies monitor-offer timestamps (sessions
	// install their virtual clock so the stats timeline matches the
	// simulator's); nil falls back to the app-time high-water mark.
	timeSource atomic.Pointer[func() float64]

	// lastAppTs is the float64 bit pattern of the highest batch timestamp
	// ingested so far: the fallback clock for monitor offers. App time
	// keeps the stats timeline on the data's own axis instead of tying it
	// to host speed.
	lastAppTs atomic.Uint64

	// waitCh/waitMu/waiters implement the event-driven pending-count
	// notifier: every decrement of pending broadcasts (close-and-replace
	// of waitCh) when someone is waiting, so Drain and backpressured
	// producers block on a channel instead of polling. The waiters gate
	// keeps the consumers' hot path at one atomic load when nobody waits.
	waitMu  sync.Mutex
	waitCh  chan struct{} //rldlint:guardedby waitMu
	waiters atomic.Int32

	// snapMu guards snaps, the latest Checkpoint's per-op window contents
	// (nil until the first checkpoint).
	snapMu sync.Mutex
	snaps  []*stream.Batch //rldlint:guardedby snapMu

	// sendMu fences Ingest against Stop: Ingest holds the read side for
	// its whole body, and Stop takes the write side after setting the
	// stopped flag, so no Ingest can be between its stopped-check and its
	// send when the consumers retire.
	sendMu sync.RWMutex

	// stopDone closes when shutdown fully completes, so a Stop racing
	// another Stop returns fully-drained results.
	stopDone chan struct{}

	mu        sync.Mutex         // guards the ingest-side state below
	ingested  int64              //rldlint:guardedby mu
	batches   int64              //rldlint:guardedby mu
	planUse   map[string]int64   //rldlint:guardedby mu
	switches  int                //rldlint:guardedby mu
	lastKey   string             //rldlint:guardedby mu
	rateCount map[string]float64 //rldlint:guardedby mu
	started   bool               //rldlint:guardedby mu
	stopped   bool               //rldlint:guardedby mu
	// plans interns each distinct plan the chooser has returned: the
	// canonical clone plus its precomputed key, so recurring plans skip
	// the per-batch Clone/Valid/Key allocations. Bounded by maxInterned.
	plans []internedPlan //rldlint:guardedby mu
}

// NewLeader builds a leader for q over transport t, routing operators by
// assign across nNodes nodes. core must have been built for q; chooser may
// be installed later with SetChooser.
func NewLeader(q *query.Query, core *NodeCore, assign physical.Assignment, nNodes int, chooser PlanChooser, t Transport) (*Leader, error) {
	if !assign.Complete() || len(assign) != len(q.Ops) {
		return nil, fmt.Errorf("%w: incomplete", ErrBadPlacement)
	}
	for _, n := range assign {
		if n < 0 || n >= nNodes {
			return nil, fmt.Errorf("%w: references node %d of %d", ErrBadPlacement, n, nNodes)
		}
	}
	l := &Leader{
		q:         q,
		t:         t,
		chooser:   chooser,
		core:      core,
		monitor:   stats.NewMonitor(len(q.Ops), 0.5, 0),
		planUse:   make(map[string]int64),
		rateCount: make(map[string]float64),
		stopDone:  make(chan struct{}),
		waitCh:    make(chan struct{}),
	}
	a := assign.Clone()
	l.assign.Store(&a)
	for i := 0; i < nNodes; i++ {
		l.nodes = append(l.nodes, &node{
			notify: make(chan struct{}, 1),
			active: t.Consumers(),
			slow:   1,
			wake:   make(chan struct{}),
			quit:   make(chan struct{}),
		})
	}
	l.refreshSnap()
	return l, nil
}

// internPlan returns the canonical copy and key of plan, validating and
// caching it on first sight. ok is false for an invalid plan.
func (l *Leader) internPlan(plan query.Plan) (internedPlan, bool) {
	l.mu.Lock()
	for i := range l.plans {
		if l.plans[i].plan.Equal(plan) {
			ip := l.plans[i]
			l.mu.Unlock()
			return ip, true
		}
	}
	l.mu.Unlock()
	if plan == nil || !plan.Valid(l.q) {
		return internedPlan{}, false
	}
	ip := internedPlan{plan: plan.Clone(), key: plan.Key()}
	l.mu.Lock()
	if len(l.plans) < maxInterned {
		l.plans = append(l.plans, ip)
	}
	l.mu.Unlock()
	return ip, true
}

// refreshSnap re-clones the monitor state into the chooser snapshot cache;
// called after every monitor Offer (the only mutation point).
func (l *Leader) refreshSnap() {
	snap := l.monitor.Snapshot()
	l.snapCache.Store(&snap)
}

// Start launches every node's consumers and the transport.
func (l *Leader) Start() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		return
	}
	l.started = true
	for i := range l.nodes {
		l.startConsumers(i)
	}
	l.t.Launch(l)
}

// startConsumers spawns node i's consumers against its current quit
// channel.
func (l *Leader) startConsumers(i int) {
	n := l.nodes[i]
	n.mu.Lock()
	quit := n.quit
	n.mu.Unlock()
	for idx := 0; idx < l.t.Consumers(); idx++ {
		n.wg.Add(1)
		go l.consume(i, idx, quit)
	}
}

// consume drains one node's queue until its consumer generation retires.
func (l *Leader) consume(i, idx int, quit <-chan struct{}) {
	n := l.nodes[i]
	defer n.wg.Done()
	for m := n.pop(idx, quit); m != nil; m = n.pop(idx, quit) {
		l.hop(i, m)
	}
}

// hop runs m's current stage on node i, then forwards or sinks it. The
// forward re-increments pending before this hop's decrement, so pending
// never transiently hits zero under a live message. A stage that fails
// takes the node down; its input is still whole, so the message parks or
// dies like any queued one.
func (l *Leader) hop(i int, m *message) {
	n := l.nodes[i]
	op := m.plan[m.stage]
	out, in, hit, err := l.t.RunStage(i, op, m.partials)
	switch {
	case err != nil:
		l.NodeFailed(i)
		// m left the queue before everything the sweep parked, so it
		// replays first.
		n.mu.Lock()
		park := n.mode == chaos.Checkpoint
		if park {
			n.parked = append([]*message{m}, n.parked...)
		}
		n.mu.Unlock()
		if !park {
			l.lose(m)
		}
	default:
		l.core.AddSel(op, in, hit)
		m.partials = out
		if len(out) == 0 || m.stage == len(m.plan)-1 {
			l.sink(m)
		} else {
			m.stage++
			l.send(m)
		}
	}
	n.queued.Add(-1)
	l.pending.Add(-1)
	l.wakePending()
}

// wakePending wakes everyone blocked in AwaitPending after a pending-count
// decrement. When nobody waits (the steady state) it is one atomic load.
func (l *Leader) wakePending() {
	if l.waiters.Load() == 0 {
		return
	}
	l.waitMu.Lock()
	close(l.waitCh)
	l.waitCh = make(chan struct{})
	l.waitMu.Unlock()
}

// AwaitPending blocks until fewer than limit messages are in flight
// (limit ≤ 1: until fully drained), the context ends, or closed closes —
// returning nil, ctx.Err(), or runtime.ErrClosed respectively. Wakeups are
// edge-triggered from the consumer/sweep paths via wakePending; the
// register-then-recheck order makes the wait lose no wakeup.
func (l *Leader) AwaitPending(ctx context.Context, limit int64, closed <-chan struct{}) error {
	if limit < 1 {
		limit = 1
	}
	for l.pending.Load() >= limit {
		l.waiters.Add(1)
		l.waitMu.Lock()
		ch := l.waitCh
		l.waitMu.Unlock()
		if l.pending.Load() < limit {
			l.waiters.Add(-1)
			return nil
		}
		select {
		case <-ch:
			l.waiters.Add(-1)
		case <-ctx.Done():
			l.waiters.Add(-1)
			return ctx.Err()
		case <-closed:
			l.waiters.Add(-1)
			return runtime.ErrClosed
		}
	}
	return nil
}

// send routes a message to the node hosting its current stage's operator:
// queued FIFO on a live node, parked (Checkpoint) or destroyed (LoseState)
// on a down one. Parked messages leave the pending count, so Drain does
// not wait out an outage.
func (l *Leader) send(m *message) {
	i := (*l.assign.Load())[m.plan[m.stage]]
	n := l.nodes[i]
	n.mu.Lock()
	if n.down {
		if n.mode == chaos.Checkpoint {
			n.parked = append(n.parked, m)
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		l.lose(m)
		return
	}
	l.pending.Add(1)
	n.queued.Add(1)
	n.jobs = append(n.jobs, m)
	n.ring()
	n.mu.Unlock()
}

// lose destroys a message routed to (or stranded on) a dead node,
// accounting its in-flight partial results as lost tuples.
func (l *Leader) lose(m *message) {
	l.lost.Add(int64(len(m.partials)))
	l.core.ReleasePartials(m.partials)
	*m = message{}
	msgPool.Put(m)
}

func (l *Leader) sink(m *message) {
	l.produced.Add(int64(len(m.partials)))
	l.latencyNano.Add(int64(time.Since(m.ingress))) //rldlint:allow wallclock -- batch latency is a host-side wall metric, not simulated time
	if obs := l.resultObs.Load(); obs != nil && len(m.partials) > 0 {
		// Ownership of the result tuples transfers to the observer's
		// consumer; they are never recycled.
		(*obs)(m.partials, m.ingress)
		putPartials(m.partials)
	} else {
		l.core.ReleasePartials(m.partials)
	}
	*m = message{}
	msgPool.Put(m)
}

// SetResultObserver installs (or, with nil, removes) the sink tap: obs is
// invoked on consumer goroutines with every non-empty result emission and
// must copy what it retains. Install before Start to observe every result.
func (l *Leader) SetResultObserver(obs func(tuples []*stream.Joined, ingress time.Time)) {
	if obs == nil {
		l.resultObs.Store(nil)
		return
	}
	o := resultObserver(obs)
	l.resultObs.Store(&o)
}

// Ingest admits one batch of tuples from a single stream: the batch is
// classified to a plan, inserted into its stream's join windows,
// statistics are sampled, and the pipeline begins. Ingest never blocks on
// the pipeline: node queues are unbounded FIFOs, so callers that outrun
// the consumers must pace themselves via AwaitPending — sessions enforce
// an in-flight bound on top of this. Failures are typed: ErrNotStarted
// before Start, ErrStopped after Stop, ErrNodeDown when every node is
// crashed, and ErrInvalidPlan for a misbehaving chooser; all leave no
// trace, so the same batch can be retried. Safe for concurrent use.
func (l *Leader) Ingest(b *stream.Batch) error {
	l.sendMu.RLock()
	defer l.sendMu.RUnlock()
	l.mu.Lock()
	if !l.started {
		l.mu.Unlock()
		return ErrNotStarted
	}
	if l.stopped {
		l.mu.Unlock()
		return ErrStopped
	}
	l.mu.Unlock()
	if n := len(l.nodes); int(l.downCount.Load()) >= n {
		return fmt.Errorf("%w: all %d nodes crashed", ErrNodeDown, n)
	}

	// Classify and validate BEFORE mutating any state: a failed Ingest
	// must leave no trace (no counters, no window inserts, no stats
	// offers). The snapshot cache reflects offers up to the previous
	// batch — offers are rate-limited to every statsEvery-th batch anyway.
	plan := l.chooser.Choose(*l.snapCache.Load())
	ip, ok := l.internPlan(plan)
	if !ok {
		return fmt.Errorf("%w: chooser returned %v", ErrInvalidPlan, plan)
	}
	if err := l.t.InsertWindows(b, *l.assign.Load()); err != nil {
		return err
	}

	l.advanceAppTime(float64(b.MaxTs()))
	l.offerStats(false)

	k := ip.key
	n := b.Len()
	l.mu.Lock()
	l.ingested += int64(n)
	l.batches++
	l.rateCount[b.Stream] += float64(n)
	l.planUse[k]++
	if k != l.lastKey {
		if l.lastKey != "" {
			l.switches++
		}
		l.lastKey = k
	}
	l.mu.Unlock()

	// Seed one pooled singleton partial per tuple; the columns are copied,
	// so the caller may reuse or Release b once Ingest returns.
	slot := l.core.schema.Slot(b.Stream)
	partials := getPartials()
	for i := 0; i < n; i++ {
		j := l.core.schema.Acquire()
		j.SetPart(slot, b.Seq[i], b.Ts[i], b.Key[i], b.Arr[i], b.ValsAt(i))
		partials = append(partials, j)
	}
	m := msgPool.Get().(*message)
	*m = message{
		partials: partials,
		// The interned canonical plan is shared across messages; the
		// leader never mutates m.plan.
		plan:    ip.plan,
		ingress: time.Now(), //rldlint:allow wallclock -- ingress stamp feeds the wall-latency metric in sink
	}
	l.send(m)
	return nil
}

// offerStats publishes observed per-op selectivities to the monitor. It is
// rate-limited to every statsEvery-th batch (the slice/map building below
// would otherwise be a per-batch allocation on the hot path); force bypasses
// the limiter for the final sample at Stop.
func (l *Leader) offerStats(force bool) {
	if !force && l.statBatches.Add(1)%statsEvery != 1 {
		return
	}
	sels := l.core.ObservedSels()
	l.mu.Lock()
	rates := make(map[string]float64, len(l.rateCount))
	for k, v := range l.rateCount {
		rates[k] = v
	}
	l.mu.Unlock()
	// Stamp offers with the installed time source (a session's virtual
	// clock) so the stats timeline matches the simulator's instead of
	// diverging with host speed; the app-time high-water mark is the
	// fallback. Offer uses the stamp only to pace resampling, so any
	// monotone non-decreasing clock is valid.
	now := math.Float64frombits(l.lastAppTs.Load())
	if fn := l.timeSource.Load(); fn != nil {
		now = (*fn)()
	}
	l.monitor.Offer(now, sels, rates)
	l.refreshSnap()
}

// advanceAppTime CAS-maxes the app-time high-water mark to ts. Non-positive
// timestamps are ignored (MaxTs of an empty batch is 0; a negative float's
// bit pattern would not order as uint64), so the bit patterns compared below
// order the same as the floats themselves.
func (l *Leader) advanceAppTime(ts float64) {
	if ts <= 0 {
		return
	}
	bits := math.Float64bits(ts)
	for {
		cur := l.lastAppTs.Load()
		if bits <= cur || l.lastAppTs.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// SetTimeSource installs (or, with nil, removes) the clock used to stamp
// monitor offers: sessions install their virtual clock so observed
// statistics line up with the simulator's timeline. Install before Start.
func (l *Leader) SetTimeSource(fn func() float64) {
	if fn == nil {
		l.timeSource.Store(nil)
		return
	}
	l.timeSource.Store(&fn)
}

// SetChooser installs the per-batch plan chooser. It must be called before
// Start (sessions install their policy-backed chooser between construction
// and Start); there is no synchronization against concurrent Ingest.
func (l *Leader) SetChooser(c PlanChooser) { l.chooser = c }

// controlReady rejects control operations (Migrate/Crash/Recover/
// SetSlowdown) on a stopped leader, whose consumers are gone, and
// range-checks their node argument.
func (l *Leader) controlReady(what string, node int) error {
	l.mu.Lock()
	stopped := l.stopped
	l.mu.Unlock()
	if stopped {
		return ErrStopped
	}
	if node < 0 || node >= len(l.nodes) {
		return fmt.Errorf("%w: %s node %d", ErrUnknownNode, what, node)
	}
	return nil
}

// Pending returns the number of in-flight messages not yet sunk — the
// quantity sessions bound for backpressure (parked messages on crashed
// nodes are excluded, as in Drain).
func (l *Leader) Pending() int64 { return l.pending.Load() }

// Counters is a cheap live snapshot of the leader's core counters, for
// session Stats polling without building a full Results.
type Counters struct {
	Ingested, Produced, Batches, TuplesLost, Pending int64
	PlanSwitches, Crashes, Restores                  int
}

// Counters returns a live snapshot of the run's counters. Safe for
// concurrent use; the fields are mutually consistent only to within
// in-flight work.
func (l *Leader) Counters() Counters {
	c := Counters{
		Produced:   l.produced.Load(),
		TuplesLost: l.lost.Load(),
		Pending:    l.pending.Load(),
		Crashes:    int(l.crashes.Load()),
		Restores:   int(l.restores.Load()),
	}
	l.mu.Lock()
	c.Ingested = l.ingested
	c.Batches = l.batches
	c.PlanSwitches = l.switches
	l.mu.Unlock()
	return c
}

// Assignment returns a copy of the live routing table.
func (l *Leader) Assignment() physical.Assignment {
	return (*l.assign.Load()).Clone()
}

// Nodes returns the cluster size.
func (l *Leader) Nodes() int { return len(l.nodes) }

// Monitor exposes the leader's statistics monitor (examples print it).
func (l *Leader) Monitor() *stats.Monitor { return l.monitor }

// Migrate reroutes one operator to another node: the transport moves its
// window state (a no-op in-process, where state is shared memory), then the
// routing table swaps. Messages already queued on the old node still run
// there. Migrate must be called from a single control goroutine.
func (l *Leader) Migrate(op, node int) error {
	if op < 0 || op >= len(l.q.Ops) {
		return fmt.Errorf("%w: migrate op %d", ErrUnknownOp, op)
	}
	if err := l.controlReady("migrate", node); err != nil {
		return err
	}
	cur := *l.assign.Load()
	if cur[op] == node {
		return nil
	}
	if l.q.Ops[op].Kind == query.Join {
		l.t.Move(op, cur[op], node, l.savedSnapshot(op))
	}
	next := cur.Clone()
	next[op] = node
	l.assign.Store(&next)
	return nil
}

// savedSnapshot returns op's window state as of the last Checkpoint (nil
// before the first).
func (l *Leader) savedSnapshot(op int) *stream.Batch {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if l.snaps == nil {
		return nil
	}
	return l.snaps[op]
}

// markDown flips node i down under mode and retires its consumers (each
// finishes the stage it is running). It reports false when the node was
// already down.
func (l *Leader) markDown(i int, mode chaos.RecoveryMode) bool {
	n := l.nodes[i]
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return false
	}
	n.down = true
	n.mode = mode
	quit := n.quit
	n.mu.Unlock()
	l.downCount.Add(1)
	close(quit)
	return true
}

// NodeFailed takes a node down after a failure the control loop did not
// script — a dead worker process, a missed heartbeat, a failed stage —
// exactly as a Checkpoint-mode Crash would, parking its backlog for a
// later Recover. Reporting an already-down node is a no-op. Safe to call
// from a consumer goroutine.
func (l *Leader) NodeFailed(i int) {
	if l.markDown(i, chaos.Checkpoint) {
		l.sweep(i)
	}
}

// Crash takes a node down: the transport kills its resources, its
// consumers retire after their in-flight stage (the crash boundary is the
// queue), and everything queued or subsequently routed to it is parked
// for replay on recovery under chaos.Checkpoint, or destroyed and counted
// as lost under chaos.LoseState. Crashing a crashed node is a no-op. Crash
// must be called from the control goroutine (like Migrate).
func (l *Leader) Crash(node int, mode chaos.RecoveryMode) error {
	if err := l.controlReady("crash", node); err != nil {
		return err
	}
	if !l.markDown(node, mode) {
		return nil
	}
	l.crashes.Add(1)
	// Sweep before the kill: a stage the kill interrupts then parks ahead
	// of the swept backlog, keeping the parked queue in arrival order.
	l.sweep(node)
	l.t.Kill(node)
	l.nodes[node].wg.Wait()
	return nil
}

// sweep empties a down node's queue — parking the backlog for replay
// (Checkpoint mode) or destroying it (LoseState) — and keeps the pending
// count honest so Drain never waits on a dead node. send's down check
// shares the enqueue's critical section, so nothing lands in the queue
// afterwards.
func (l *Leader) sweep(i int) {
	n := l.nodes[i]
	n.mu.Lock()
	backlog := n.jobs[n.head:]
	n.jobs, n.head = nil, 0
	park := n.mode == chaos.Checkpoint
	if park {
		// Sends that parked since the node went down arrived after the
		// backlog; replay keeps arrival order.
		n.parked = append(backlog, n.parked...)
	}
	n.mu.Unlock()
	for _, m := range backlog {
		n.queued.Add(-1)
		l.pending.Add(-1)
		if !park {
			l.lose(m)
		}
	}
	if len(backlog) > 0 {
		l.wakePending()
	}
}

// Recover brings a crashed node back: the transport rebuilds the join
// operators the node currently hosts (restored from the last Checkpoint
// under chaos.Checkpoint — tuples newer than the snapshot are lost unless
// a write-ahead log bridges them — or empty under chaos.LoseState), fresh
// consumers start, and parked messages replay in FIFO order through the
// current routing table (so they follow any migrations made during the
// outage). Recovering a live node is a no-op.
func (l *Leader) Recover(node int) error {
	if err := l.controlReady("recover", node); err != nil {
		return err
	}
	n := l.nodes[node]
	n.mu.Lock()
	if !n.down {
		n.mu.Unlock()
		return nil
	}
	mode := n.mode
	n.mu.Unlock()
	// Consumers retired by NodeFailed may still be finishing a stage.
	n.wg.Wait()
	var ops []int
	for op, h := range *l.assign.Load() {
		if h == node && l.q.Ops[op].Kind == query.Join {
			ops = append(ops, op)
		}
	}
	l.snapMu.Lock()
	snaps := l.snaps
	l.snapMu.Unlock()
	if err := l.t.Respawn(node, mode, ops, snaps); err != nil {
		return err
	}
	if mode == chaos.Checkpoint && snaps != nil {
		l.restores.Add(int64(len(ops)))
	}
	// Flip live and take the parked backlog atomically: later sends queue
	// directly, everything parked before the flip replays behind them.
	n.mu.Lock()
	n.down = false
	n.quit = make(chan struct{})
	n.active = l.activeFor(n.slow)
	parked := n.parked
	n.parked = nil
	n.mu.Unlock()
	l.downCount.Add(-1)
	l.startConsumers(node)
	for _, m := range parked {
		l.send(m)
	}
	return nil
}

// SetSlowdown runs a node at the given capacity factor: part of its
// consumers pause (in-process, where a node has several) and the
// transport stretches its stages (over TCP, where it has one). Factor 1
// restores full speed.
func (l *Leader) SetSlowdown(node int, factor float64) error {
	if err := l.controlReady("slowdown", node); err != nil {
		return err
	}
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	n := l.nodes[node]
	n.mu.Lock()
	n.slow = factor
	if !n.down {
		n.active = l.activeFor(factor)
		// Paused consumers block on wake; signal them to re-check.
		close(n.wake)
		n.wake = make(chan struct{})
	}
	n.mu.Unlock()
	l.t.Slow(node, factor)
	return nil
}

// activeFor maps a capacity factor to an unpaused-consumer count.
func (l *Leader) activeFor(factor float64) int {
	k := l.t.Consumers()
	if factor >= 1 {
		return k
	}
	return max(1, int(math.Ceil(float64(k)*factor)))
}

// Checkpoint snapshots every join operator's window state; the latest
// snapshot is what Checkpoint-mode recovery restores. An operator whose
// node cannot supply one keeps its previous snapshot. Sessions call it on
// a periodic virtual-time cadence (FaultPlan.SnapshotEvery).
func (l *Leader) Checkpoint() {
	assign := *l.assign.Load()
	l.snapMu.Lock()
	prev := l.snaps
	l.snapMu.Unlock()
	snaps := make([]*stream.Batch, len(l.q.Ops))
	l.t.Barrier(func() []bool {
		failed := make([]bool, len(l.nodes))
		for op := range l.q.Ops {
			if l.q.Ops[op].Kind != query.Join {
				continue
			}
			if snaps[op] = l.t.Snapshot(assign[op], op); snaps[op] == nil {
				failed[assign[op]] = true
				if prev != nil {
					snaps[op] = prev[op]
				}
			}
		}
		return failed
	})
	l.snapMu.Lock()
	l.snaps = snaps
	l.snapMu.Unlock()
}

// NodeLoads returns the per-node queued message counts — the live
// substrates' analogue of the simulator's queued cost-units, fed to
// Policy.Rebalance. The unit differs from the simulator's: policies with
// absolute thresholds calibrated in cost-units (DYNConfig.ActivationFloor)
// need engine-specific tuning; relative imbalance factors carry over
// as-is. Crashed nodes report the runtime.DownLoad sentinel (+Inf) so
// failure-aware policies can evacuate their operators.
func (l *Leader) NodeLoads() []float64 {
	out := make([]float64, len(l.nodes))
	for i, n := range l.nodes {
		n.mu.Lock()
		down := n.down
		n.mu.Unlock()
		if down {
			out[i] = runtime.DownLoad
		} else {
			out[i] = float64(n.queued.Load())
		}
	}
	return out
}

// Drain blocks until all in-flight messages are processed. The wait is
// event-driven: consumers signal every pending-count decrement, so Drain
// wakes as the last message sinks instead of polling.
func (l *Leader) Drain() {
	l.AwaitPending(context.Background(), 1, nil)
}

// Stop drains, retires the consumers, closes the transport, and returns
// the run's results. Backlog parked on a node still down has no recovery
// to replay into and counts as lost. A Stop that loses the race to another
// Stop waits for the winner's shutdown to complete, so every caller sees
// fully-drained results. Stopping a never-started leader releases the
// transport.
func (l *Leader) Stop() Results {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		<-l.stopDone
		return l.results()
	}
	l.stopped = true
	l.mu.Unlock()
	// Barrier: wait out any Ingest that passed its stopped-check before
	// the flag flipped; new Ingests are now rejected.
	l.sendMu.Lock()
	//lint:ignore SA2001 the empty critical section IS the barrier
	l.sendMu.Unlock()
	// Drain AFTER the barrier: every accounted message is delivered and
	// processed before the consumers retire.
	l.Drain()
	for _, n := range l.nodes {
		// Flagging every node down makes a late NodeFailed a no-op, so
		// nothing closes a retired quit channel twice.
		n.mu.Lock()
		wasDown := n.down
		n.down = true
		quit, parked := n.quit, n.parked
		n.parked = nil
		n.mu.Unlock()
		if !wasDown {
			close(quit)
		}
		for _, m := range parked {
			l.lose(m)
		}
	}
	for _, n := range l.nodes {
		n.wg.Wait()
	}
	l.t.Close()
	// Final forced sample so results reflect the fully processed run,
	// not the last rate-limited offer.
	l.offerStats(true)
	close(l.stopDone)
	return l.results()
}

func (l *Leader) results() Results {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := Results{
		Produced:     l.produced.Load(),
		Ingested:     l.ingested,
		Batches:      l.batches,
		PlanSwitches: l.switches,
		PlanUse:      make(map[string]int64, len(l.planUse)),
		Crashes:      int(l.crashes.Load()),
		TuplesLost:   l.lost.Load(),
		Restores:     int(l.restores.Load()),
	}
	for k, v := range l.planUse {
		r.PlanUse[k] = v
	}
	if l.batches > 0 {
		r.MeanLatencyMS = float64(l.latencyNano.Load()) / 1e6 / float64(l.batches)
	}
	r.ObservedSels = l.monitor.Snapshot().Sels
	return r
}
