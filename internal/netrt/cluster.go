package netrt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rld/internal/chaos"
	"rld/internal/engine"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stream"
)

// ClusterConfig tunes the leader.
type ClusterConfig struct {
	// Engine is the operator-state configuration shipped to every worker
	// (threshold scale, fanout cap, shards, WAL directory).
	Engine engine.Config
	// WorkerCommand, when non-empty, is the argv prefix used to launch
	// worker processes (it receives -leader/-node/-epoch flags) — the
	// cmd/rldworker binary in CI. Empty re-execs the current binary with
	// RLD_NETRT_WORKER set, which MaybeWorker intercepts.
	WorkerCommand []string
	// ListenAddr is the leader's listen address (default "127.0.0.1:0").
	ListenAddr string
	// HeartbeatEvery is the liveness-probe period (default 500ms).
	HeartbeatEvery time.Duration
	// CallTimeout bounds every worker RPC; a worker that does not answer
	// within it is treated as dead, so a hung process degrades to a
	// detected crash instead of a stuck pipeline (default 60s).
	CallTimeout time.Duration
	// StartupTimeout bounds worker spawn + handshake (default 30s).
	StartupTimeout time.Duration
	// MaxStageChunk is the soft bound on one stage frame's partials
	// payload in bytes (default DefaultStageChunk). Larger hops are split
	// across multiple frames in both directions, so join fanout can grow a
	// logical hop past MaxFrame without poisoning the connection.
	MaxStageChunk int
}

func (cfg ClusterConfig) withDefaults() ClusterConfig {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 60 * time.Second
	}
	if cfg.StartupTimeout <= 0 {
		cfg.StartupTimeout = 30 * time.Second
	}
	if cfg.MaxStageChunk <= 0 {
		cfg.MaxStageChunk = DefaultStageChunk
	}
	return cfg
}

// workerProc is the transport's view of one worker process: its OS process
// and connection. The Leader owns the node's queue and failure state.
type workerProc struct {
	node int

	// callMu serializes RPC use of the connection (one request/response
	// in flight per worker, matching the worker's single-threaded loop).
	callMu sync.Mutex
	// frame is the scratch stage and insert requests are built in, in
	// place behind a reserved header (beginFrame/sendFrame), so a hop's
	// request costs no allocation once the buffer has grown to the
	// workload's frame size. A request's bytes are valid until the next
	// call on this worker: anything kept past the call is copied out.
	frame enc //rldlint:guardedby callMu

	mu sync.Mutex // guards everything below
	// gen increments on every (re)spawn; stale exit/error handlers carry
	// the gen they observed so they cannot take down a respawned worker.
	gen      uint64
	cmd      interface{ Kill() error }
	procDone <-chan struct{}
	wc       *wireConn
	// down marks a severed worker: no connection, RPCs refuse with
	// ErrWorkerDown until Respawn.
	down bool
	// unacked (durable mode only) retains a copy of the frameInsert request
	// frame of every window insert the worker has not acknowledged — inserts
	// attempted while the worker was down, or whose RPC died mid-call.
	// Respawn re-offers them on the fresh process before it goes live (and
	// drops them under LoseState); the worker's insert-time dedup absorbs
	// any that actually landed before the crash.
	unacked [][]byte
	slow    float64 // capacity factor in (0,1]
}

// procKiller adapts *os.Process to the killable interface (test seam).
type procKiller struct{ p *os.Process }

func (k procKiller) Kill() error { return k.p.Kill() }

// acceptedConn is one handshaken worker connection delivered by the accept
// loop to whoever is waiting (NewCluster's collector or Respawn).
type acceptedConn struct {
	node int
	wc   *wireConn
}

// Cluster is an engine.Leader over worker processes. Each node is a worker
// process owning its operators' window state (an engine.NodeCore behind
// the wire protocol); Cluster is the Leader's TCP Transport — spawn,
// handshake, heartbeat, RPC, and re-offer of unacknowledged inserts — and
// embeds the Leader, which owns routing, classification, statistics,
// queues, checkpoints, and the failure lifecycle. engine.OpenSessionOn
// layers the full session protocol on top, so RLD/ROD/DYN run unchanged
// over real processes.
type Cluster struct {
	*engine.Leader

	q   *query.Query
	cfg ClusterConfig
	// core is leader-side operator metadata: the join schema (and its
	// result pool) plus validated, normalized config. Its windows are
	// never inserted into — all window state lives in the workers.
	core    *engine.NodeCore
	workers []*workerProc
	epoch   uint64
	setup   []byte // marshaled Welcome payload
	ln      net.Listener

	connCh    chan acceptedConn
	earlyDead chan int
	// launched flips when the Leader starts; worker exits before it fail
	// startup instead of taking a node down.
	launched atomic.Bool

	hbQuit chan struct{}
	hbDone chan struct{}
}

var _ engine.Transport = (*Cluster)(nil)

// NewCluster spawns nNodes worker processes, waits for their handshakes,
// and returns a leader ready for engine.OpenSessionOn. On error everything
// spawned is torn down. The leader is not started — Start launches the
// consumers and heartbeat.
func NewCluster(q *query.Query, assign physical.Assignment, nNodes int, cfg ClusterConfig) (*Cluster, error) {
	core, err := engine.NewNodeCore(q, cfg.Engine)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		q:         q,
		cfg:       cfg,
		core:      core,
		epoch:     uint64(time.Now().UnixNano())<<8 | uint64(os.Getpid()&0xff), //rldlint:allow wallclock -- epoch fencing needs a host-unique monotone seed
		connCh:    make(chan acceptedConn, nNodes),
		earlyDead: make(chan int, nNodes),
		hbQuit:    make(chan struct{}),
		hbDone:    make(chan struct{}),
	}
	if c.Leader, err = engine.NewLeader(q, core, assign, nNodes, nil, c); err != nil {
		return nil, err
	}
	c.setup, err = json.Marshal(setupMsg{Query: q, Config: core.Config(), StageChunk: cfg.MaxStageChunk})
	if err != nil {
		return nil, fmt.Errorf("netrt: marshal setup: %w", err)
	}
	c.ln, err = net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("netrt: listen: %w", err)
	}
	for i := 0; i < nNodes; i++ {
		c.workers = append(c.workers, &workerProc{node: i, slow: 1})
	}
	// The accept loop starts only after the workers slice is fully built:
	// handshakes read it unsynchronized (it is immutable once spawning
	// begins).
	go c.acceptLoop()
	for i := 0; i < nNodes; i++ {
		if err := c.spawnInto(c.workers[i]); err != nil {
			c.teardown()
			return nil, err
		}
	}
	// Collect every worker's handshake; any premature exit fails startup
	// immediately instead of waiting out the timeout.
	deadline := time.After(cfg.StartupTimeout) //rldlint:allow wallclock -- startup handshake deadline is real elapsed time
	have := 0
	for have < nNodes {
		select {
		case ac := <-c.connCh:
			wp := c.workers[ac.node]
			wp.mu.Lock()
			if wp.wc != nil {
				wp.mu.Unlock()
				ac.wc.Close()
				continue
			}
			wp.wc = ac.wc
			wp.mu.Unlock()
			have++
		case node := <-c.earlyDead:
			c.teardown()
			return nil, fmt.Errorf("%w: worker %d exited during startup", ErrWorkerDown, node)
		case <-deadline:
			c.teardown()
			return nil, fmt.Errorf("%w: %d of %d worker handshakes outstanding", ErrStartupTimeout, nNodes-have, nNodes)
		}
	}
	return c, nil
}

// Addr returns the leader's listen address (tests dial it directly to
// exercise handshake rejection).
func (c *Cluster) Addr() string { return c.ln.Addr().String() }

// spawnInto launches a fresh worker process for wp's node, bumping its
// generation. Caller guarantees no consumer is running against wp.
func (c *Cluster) spawnInto(wp *workerProc) error {
	wp.mu.Lock()
	wp.gen++
	gen := wp.gen
	wp.mu.Unlock()
	node := wp.node
	cmd, done, err := spawnWorker(c.cfg.WorkerCommand, c.Addr(), node, c.epoch, func() {
		c.onWorkerExit(node, gen)
	})
	if err != nil {
		return err
	}
	wp.mu.Lock()
	wp.cmd = procKiller{p: cmd.Process}
	wp.procDone = done
	wp.mu.Unlock()
	return nil
}

// acceptLoop admits worker connections until the listener closes. Each
// connection is handshaken on its own goroutine so one stale or hostile
// dialer cannot block real workers.
func (c *Cluster) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handshake(conn)
	}
}

// handshake validates one inbound Hello. Every rejection is answered with
// a typed error frame before closing: a worker from a previous leader
// incarnation (stale epoch), a version-skewed worker, or garbage each get
// a precise refusal instead of a hang.
func (c *Cluster) handshake(conn net.Conn) {
	wc := newWireConn(conn)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	t, payload, err := wc.readFrame()
	if err != nil {
		wc.writeError(err)
		wc.Close()
		return
	}
	if t != frameHello {
		wc.writeError(fmt.Errorf("%w: expected hello, got frame %d", ErrBadFrame, t))
		wc.Close()
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		wc.writeError(err)
		wc.Close()
		return
	}
	if h.epoch != c.epoch {
		wc.writeError(fmt.Errorf("%w: worker epoch %d, leader epoch %d", ErrStaleEpoch, h.epoch, c.epoch))
		wc.Close()
		return
	}
	if h.node < 0 || h.node >= len(c.workers) {
		wc.writeError(fmt.Errorf("%w: node %d out of range", ErrBadFrame, h.node))
		wc.Close()
		return
	}
	if err := wc.writeFrame(frameWelcome, c.setup); err != nil {
		wc.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	select {
	case c.connCh <- acceptedConn{node: h.node, wc: wc}:
	default:
		wc.Close()
	}
}

// teardown kills every spawned process and closes the listener — the
// NewCluster error path and the never-started Stop path.
func (c *Cluster) teardown() {
	for _, wp := range c.workers {
		wp.mu.Lock()
		wc := wp.wc
		wp.mu.Unlock()
		if wc != nil {
			wc.Close()
		}
		c.reap(wp)
	}
	c.ln.Close()
}

// reap kills wp's current process, if any, and waits until it is gone.
func (c *Cluster) reap(wp *workerProc) {
	wp.mu.Lock()
	cmd, done := wp.cmd, wp.procDone
	wp.mu.Unlock()
	if cmd != nil {
		_ = cmd.Kill()
	}
	if done != nil {
		<-done
	}
}

// heartbeatLoop pings every live worker on a period; a worker that cannot
// answer (dead process, broken pipe, hung loop past the call timeout) is
// lost exactly as an unexpected process exit would be.
func (c *Cluster) heartbeatLoop() {
	defer close(c.hbDone)
	tick := time.NewTicker(c.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.hbQuit:
			return
		case <-tick.C:
		}
		for _, wp := range c.workers {
			_, _ = c.callOK(wp, framePing, nil, framePong)
		}
	}
}

func isDownErr(err error) bool { return errors.Is(err, ErrWorkerDown) }

// durable reports whether the cluster runs with exactly-once durability:
// workers keep fsync'd local WALs and the leader retains unacknowledged
// inserts for re-offer.
func (c *Cluster) durable() bool { return c.core.Config().WALDir != "" }

// onWorkerExit runs when a worker process is reaped. An exit the leader
// did not cause (no Crash, no Quit) is a real failure: the node is lost.
func (c *Cluster) onWorkerExit(node int, gen uint64) {
	if !c.launched.Load() {
		select {
		case c.earlyDead <- node:
		default:
		}
		return
	}
	c.lost(c.workers[node], gen)
}

// sever cuts a worker of generation gen off: close the connection and
// kill and reap the process. gen fences stale failure reports — a handler
// that observed generation g cannot take down the generation-g+1 respawn.
// It reports false when the worker was already severed or respawned.
func (c *Cluster) sever(wp *workerProc, gen uint64) bool {
	wp.mu.Lock()
	if wp.down || wp.gen != gen {
		wp.mu.Unlock()
		return false
	}
	wp.down = true
	wc := wp.wc
	wp.wc = nil
	wp.mu.Unlock()
	if wc != nil {
		wc.Close()
	}
	c.reap(wp)
	return true
}

// lost severs a failed worker and reports the failure to the leader.
func (c *Cluster) lost(wp *workerProc, gen uint64) {
	if c.sever(wp, gen) {
		c.NodeFailed(wp.node)
	}
}

// rpc performs one request/response exchange on wc under the call timeout.
// The request is a frame built in place (beginFrame), or nil for an empty
// one; its buffer stays the caller's.
func (c *Cluster) rpc(wc *wireConn, t frameType, frame []byte) (frameType, []byte, error) {
	wc.c.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
	var err error
	if frame == nil {
		err = wc.writeFrame(t, nil)
	} else {
		err = wc.sendFrame(t, frame)
	}
	if err != nil {
		return 0, nil, err
	}
	rt, rp, err := wc.readFrame()
	if err != nil {
		return 0, nil, err
	}
	if rt == frameError {
		d := dec{B: rp}
		code := d.U8()
		msg := d.Str()
		if d.Err != nil {
			return 0, nil, d.Err
		}
		return 0, nil, codeToError(code, msg)
	}
	// The payload aliases the conn's scratch; copy so decoding can
	// outlive the call mutex.
	out := append([]byte(nil), rp...)
	return rt, out, nil
}

// rpcOK performs one exchange on wc that must be acknowledged with frameOK.
func (c *Cluster) rpcOK(wc *wireConn, t frameType, frame []byte) error {
	rt, _, err := c.rpc(wc, t, frame)
	if err == nil && rt != frameOK {
		err = fmt.Errorf("%w: want ok, got frame %d", ErrBadFrame, rt)
	}
	return err
}

// call performs one RPC against wp's live connection, returning the
// worker generation it used so error handlers can fence their sever.
func (c *Cluster) call(wp *workerProc, t frameType, frame []byte) (frameType, []byte, uint64, error) {
	wp.callMu.Lock()
	defer wp.callMu.Unlock()
	wp.mu.Lock()
	wc, down, gen := wp.wc, wp.down, wp.gen
	wp.mu.Unlock()
	if down || wc == nil {
		return 0, nil, gen, ErrWorkerDown
	}
	rt, rp, err := c.rpc(wc, t, frame)
	return rt, rp, gen, err
}

// callOK performs one RPC that must be answered with a want frame. Any
// other outcome on a live worker loses it; a down worker just refuses
// with ErrWorkerDown.
func (c *Cluster) callOK(wp *workerProc, t frameType, frame []byte, want frameType) ([]byte, error) {
	rt, rp, gen, err := c.call(wp, t, frame)
	if err == nil && rt != want {
		err = fmt.Errorf("%w: want frame %d, got frame %d", ErrBadFrame, want, rt)
	}
	if err != nil && !isDownErr(err) {
		c.lost(wp, gen)
	}
	return rp, err
}

// callStage runs one logical stage on wp's worker: serialize the
// partials, execute remotely, decode the survivors and the stage's
// selectivity sample. A hop whose partials exceed the stage chunk bound is
// issued as several stage RPCs whose samples add up; the input stays whole
// leader-side until every chunk succeeds, so an error anywhere lets the
// leader park or lose the full message exactly as with a single-frame hop.
func (c *Cluster) callStage(wp *workerProc, op int, partials []*stream.Joined) (out []*stream.Joined, in, hit int64, gen uint64, err error) {
	sch := c.core.Schema()
	out = c.core.NewPartials()
	// An empty hop is one empty chunk: it still runs the stage.
	for start := 0; ; {
		end := chunkEnd(sch, partials, start, c.cfg.MaxStageChunk)
		var dIn, dHit int64
		out, dIn, dHit, gen, err = c.callStageChunk(wp, op, partials[start:end], out)
		if err != nil {
			c.core.ReleasePartials(out)
			return nil, 0, 0, gen, err
		}
		in += dIn
		hit += dHit
		if end == len(partials) {
			return out, in, hit, gen, nil
		}
		start = end
	}
}

// callStageChunk performs one stage RPC and appends the decoded survivors
// to dst. The reply may span several frames — frameStagePart
// continuations followed by the frameStageResult that carries the
// selectivity sample — each individually bounded, so the exchange never builds a
// frame proportional to the hop's total fanout. Always returns dst (with
// whatever was appended) so the caller can release pooled partials on
// error.
func (c *Cluster) callStageChunk(wp *workerProc, op int, ps, dst []*stream.Joined) (out []*stream.Joined, selIn, selOut int64, gen uint64, err error) {
	sch := c.core.Schema()
	wp.callMu.Lock()
	defer wp.callMu.Unlock()
	wp.mu.Lock()
	wc, down, gen := wp.wc, wp.down, wp.gen
	wp.mu.Unlock()
	if down || wc == nil {
		return dst, 0, 0, gen, ErrWorkerDown
	}
	e := &wp.frame
	beginFrame(e)
	e.U16(uint16(op))
	encodePartials(e, sch, ps)
	wc.c.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
	err = wc.sendFrame(frameStage, e.B)
	trimFrame(e)
	if err != nil {
		return dst, 0, 0, gen, err
	}
	for {
		// Re-arm per frame: a many-part reply is alive as long as frames
		// keep landing within the call timeout.
		wc.c.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
		t, payload, rerr := wc.readFrame()
		if rerr != nil {
			return dst, 0, 0, gen, rerr
		}
		d := dec{B: payload}
		switch t {
		case frameStagePart:
			dst, rerr = decodePartials(&d, sch, dst, &wc.vals)
			if rerr != nil {
				return dst, 0, 0, gen, rerr
			}
		case frameStageResult:
			selIn = d.I64()
			selOut = d.I64()
			dst, rerr = decodePartials(&d, sch, dst, &wc.vals)
			if rerr != nil {
				return dst, 0, 0, gen, rerr
			}
			return dst, selIn, selOut, gen, nil
		case frameError:
			code := d.U8()
			msg := d.Str()
			if d.Err != nil {
				return dst, 0, 0, gen, d.Err
			}
			return dst, 0, 0, gen, codeToError(code, msg)
		default:
			return dst, 0, 0, gen, fmt.Errorf("%w: want stage result, got frame %d", ErrBadFrame, t)
		}
	}
}

// Consumers implements engine.Transport: one RPC in flight per worker.
func (c *Cluster) Consumers() int { return 1 }

// Launch implements engine.Transport: starts the heartbeat.
func (c *Cluster) Launch(*engine.Leader) {
	c.launched.Store(true)
	go c.heartbeatLoop()
}

// InsertWindows implements engine.Transport: the batch's rows go to the
// join windows of its stream's operators, one Insert RPC per hosting
// worker (batch columns straight onto the wire). Inserts to down workers
// are skipped — recovery restores from the last checkpoint anyway, exactly
// the tuples the in-process engine also loses — except in durable mode,
// where they queue as unacked requests for Respawn to re-offer, as does a
// call that dies mid-RPC (the worker may or may not have logged it; its
// dedup disambiguates). Never fails.
func (c *Cluster) InsertWindows(b *stream.Batch, assign physical.Assignment) error {
	for _, wp := range c.workers {
		if !c.hostsWindow(assign, wp.node, b.Stream) {
			continue
		}
		if gen, err := c.callInsert(wp, b, assign); err != nil && !isDownErr(err) {
			c.lost(wp, gen)
		}
	}
	return nil
}

// feedsWindow reports whether batches of stream name insert into op's
// window on node: op is a join on that stream placed there.
func (c *Cluster) feedsWindow(assign physical.Assignment, op, node int, name string) bool {
	return assign[op] == node && c.q.Ops[op].Kind == query.Join && c.q.Ops[op].Stream == name
}

// hostsWindow reports whether any operator on node has a window that
// batches of stream name insert into.
func (c *Cluster) hostsWindow(assign physical.Assignment, node int, name string) bool {
	for op := range assign {
		if c.feedsWindow(assign, op, node, name) {
			return true
		}
	}
	return false
}

// callInsert sends b to the windows on wp's node it feeds: one frameInsert
// built in wp's frame scratch, op ids first, then the batch columns. In
// durable mode a request the worker has not acknowledged — it is down, or
// the call failed — is retained as a copy for Respawn to re-offer; the
// down check and the retention share one wp.mu section, so a concurrent
// Respawn either sees the request or was already live.
func (c *Cluster) callInsert(wp *workerProc, b *stream.Batch, assign physical.Assignment) (gen uint64, err error) {
	wp.callMu.Lock()
	defer wp.callMu.Unlock()
	e := &wp.frame
	defer trimFrame(e)
	beginFrame(e)
	e.U16(0) // op count, patched once the ops are written
	nOps := 0
	for op := range assign {
		if c.feedsWindow(assign, op, wp.node, b.Stream) {
			e.U16(uint16(op))
			nOps++
		}
	}
	binary.LittleEndian.PutUint16(e.B[frameHeader:], uint16(nOps))
	encodeBatch(e, b)
	wp.mu.Lock()
	wc, down, gen := wp.wc, wp.down, wp.gen
	if (down || wc == nil) && c.durable() {
		wp.unacked = append(wp.unacked, append([]byte(nil), e.B...))
	}
	wp.mu.Unlock()
	if down || wc == nil {
		return gen, ErrWorkerDown
	}
	if err = c.rpcOK(wc, frameInsert, e.B); err != nil && c.durable() {
		wp.mu.Lock()
		wp.unacked = append(wp.unacked, append([]byte(nil), e.B...))
		wp.mu.Unlock()
	}
	return gen, err
}

// RunStage implements engine.Transport: one stage RPC, then, under a
// slowdown, a sleep stretching the hop's service time by the capacity
// factor — the process-level analogue of pausing part of a worker pool.
func (c *Cluster) RunStage(node, op int, partials []*stream.Joined) ([]*stream.Joined, int64, int64, error) {
	wp := c.workers[node]
	start := time.Now() //rldlint:allow wallclock -- slowdown emulation stretches real service time
	out, in, hit, gen, err := c.callStage(wp, op, partials)
	if err != nil {
		if !isDownErr(err) {
			c.lost(wp, gen)
		}
		return nil, 0, 0, err
	}
	c.core.ReleasePartials(partials)
	wp.mu.Lock()
	slow := wp.slow
	wp.mu.Unlock()
	if slow > 0 && slow < 1 {
		time.Sleep(time.Duration(float64(time.Since(start)) * (1 - slow) / slow)) //rldlint:allow wallclock -- chaos slowdown emulation stretches real service time
	}
	return out, in, hit, nil
}

// Snapshot implements engine.Transport: fetches op's live window state
// from a worker (nil when the worker is down or fails mid-call).
func (c *Cluster) Snapshot(node, op int) *stream.Batch {
	var e enc
	beginFrame(&e)
	e.U16(uint16(op))
	payload, err := c.callOK(c.workers[node], frameSnapshot, e.B, frameSnapshotResult)
	if err != nil {
		return nil
	}
	d := dec{B: payload}
	if d.U8() != 1 {
		return nil
	}
	b, derr := decodeBatch(&d)
	if derr != nil {
		return nil
	}
	return b
}

// restoreFrame builds a frameRestore request (a nil snap clears op).
func restoreFrame(op int, snap *stream.Batch) []byte {
	var e enc
	beginFrame(&e)
	e.U16(uint16(op))
	if snap != nil {
		e.U8(1)
		encodeBatch(&e, snap)
	} else {
		e.U8(0)
	}
	return e.B
}

// Move implements engine.Transport: unlike in-process, where operator
// state is shared memory, moving an operator here transfers its window
// state — snapshot on the old worker, restore on the new (falling back to
// the last checkpoint when the old worker is down). Hops already queued to
// the old worker still execute there against its stale but intact copy.
func (c *Cluster) Move(op, from, to int, saved *stream.Batch) {
	snap := c.Snapshot(from, op)
	if snap == nil {
		snap = saved
	}
	if snap != nil {
		_, _ = c.callOK(c.workers[to], frameRestore, restoreFrame(op, snap), frameOK)
	}
}

// Kill implements engine.Transport: a literal SIGKILL of the node's worker
// process.
func (c *Cluster) Kill(node int) {
	wp := c.workers[node]
	wp.mu.Lock()
	gen := wp.gen
	wp.mu.Unlock()
	c.sever(wp, gen)
}

// Respawn implements engine.Transport: start a fresh worker process and,
// before any traffic flows, restore the hosted join operators from the
// checkpoint (Checkpoint mode; LoseState and never-checkpointed recoveries
// start empty — a fresh process has no state to clear). The RPCs run
// directly on the fresh conn: the worker is still formally down, so call
// would refuse.
func (c *Cluster) Respawn(node int, mode chaos.RecoveryMode, ops []int, snaps []*stream.Batch) error {
	wp := c.workers[node]
	if err := c.spawnInto(wp); err != nil {
		return err
	}
	wc, err := c.awaitWorker(node)
	if err != nil {
		c.reap(wp)
		return err
	}
	abort := func(what string, err error) error {
		wc.Close()
		c.reap(wp)
		return fmt.Errorf("netrt: %s on recovered node %d: %w", what, node, err)
	}
	if mode == chaos.Checkpoint && snaps != nil {
		for _, op := range ops {
			if err := c.rpcOK(wc, frameRestore, restoreFrame(op, snaps[op])); err != nil {
				return abort("restore op", err)
			}
		}
	}
	// Durable mode: replay the worker's local WAL — everything it fsync'd
	// past the snapshot just shipped — then re-offer the inserts the old
	// incarnation never acknowledged. Both overlap the restored state; the
	// worker's insert-time dedup makes the union exact. The drain loops
	// until a lock-held check sees no unacked left, so an Ingest racing the
	// recovery cannot strand a queued insert behind the flip.
	if c.durable() && mode == chaos.Checkpoint {
		if err := c.rpcOK(wc, frameWALReplay, nil); err != nil {
			return abort("wal replay", err)
		}
		for {
			wp.mu.Lock()
			unacked := wp.unacked
			wp.unacked = nil
			wp.mu.Unlock()
			if len(unacked) == 0 {
				break
			}
			for i, frame := range unacked {
				if err := c.rpcOK(wc, frameInsert, frame); err != nil {
					// Put the undelivered tail back for the next attempt.
					wp.mu.Lock()
					wp.unacked = append(unacked[i:], wp.unacked...)
					wp.mu.Unlock()
					return abort("re-offer inserts", err)
				}
			}
		}
	}
	// Go live. An insert queued between the drain loop's final check and
	// this lock (a straggler; durable Checkpoint mode only — LoseState
	// recoveries drop retained inserts with the rest of the state) is
	// delivered through the now-live path before the leader replays its
	// parked work.
	wp.mu.Lock()
	stragglers := wp.unacked
	wp.unacked = nil
	wp.wc = wc
	wp.down = false
	wp.mu.Unlock()
	if mode != chaos.Checkpoint {
		stragglers = nil
	}
	for _, frame := range stragglers {
		if _, err := c.callOK(wp, frameInsert, frame, frameOK); err != nil {
			wp.mu.Lock()
			wp.unacked = append(wp.unacked, frame)
			wp.mu.Unlock()
		}
	}
	return nil
}

// awaitWorker waits for the accept loop to deliver node's handshaken
// connection.
func (c *Cluster) awaitWorker(node int) (*wireConn, error) {
	deadline := time.After(c.cfg.StartupTimeout)
	for {
		select {
		case ac := <-c.connCh:
			if ac.node == node {
				return ac.wc, nil
			}
			ac.wc.Close()
		case <-deadline:
			return nil, fmt.Errorf("%w: worker %d handshake outstanding", ErrStartupTimeout, node)
		}
	}
}

// Barrier implements engine.Transport. In durable mode each live worker
// first cuts a WAL barrier, so every insert is covered either by the
// snapshots pulled after it or by the worker's retained log; only a worker
// whose barrier and every snapshot pull succeeded is told to truncate
// (frameWALMark). A worker that fails any step keeps its log back to the
// last successful mark — exactly the suffix replay needs to bridge its
// stale snapshot.
func (c *Cluster) Barrier(pull func() []bool) {
	if !c.durable() {
		pull()
		return
	}
	cut := make([]bool, len(c.workers))
	for node, wp := range c.workers {
		_, err := c.callOK(wp, frameWALBarrier, nil, frameOK)
		cut[node] = err == nil
	}
	failed := pull()
	for node, wp := range c.workers {
		if cut[node] && !failed[node] {
			_, _ = c.callOK(wp, frameWALMark, nil, frameOK)
		}
	}
}

// Slow implements engine.Transport: hops on the node take 1/factor their
// service time until restored with factor 1.
func (c *Cluster) Slow(node int, factor float64) {
	wp := c.workers[node]
	wp.mu.Lock()
	wp.slow = factor
	wp.mu.Unlock()
}

// Close implements engine.Transport: quit every live worker (SIGKILL any
// that dawdle) and close the listener. A never-started cluster is torn
// down (the OpenSessionOn error path).
func (c *Cluster) Close() {
	if !c.launched.Load() {
		c.teardown()
		return
	}
	close(c.hbQuit)
	<-c.hbDone
	for _, wp := range c.workers {
		wp.mu.Lock()
		if wp.down {
			wp.mu.Unlock()
			continue
		}
		// Marked down first, so the exit handler does not report the
		// requested exit as a failure.
		wp.down = true
		wc, cmd, done := wp.wc, wp.cmd, wp.procDone
		wp.wc = nil
		wp.mu.Unlock()
		if wc != nil {
			wp.callMu.Lock()
			_ = wc.writeFrame(frameQuit, nil)
			wp.callMu.Unlock()
		}
		if done != nil {
			select {
			case <-done:
			case <-time.After(5 * time.Second): //rldlint:allow wallclock -- shutdown drain bound on a real child process
				if cmd != nil {
					_ = cmd.Kill()
				}
				<-done
			}
		}
		if wc != nil {
			wc.Close()
		}
	}
	c.ln.Close()
}
