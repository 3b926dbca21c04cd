package engine

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"rld/internal/query"
	"rld/internal/stream"
)

// This file is the node-local half of the engine: operator window state and
// the vectorized stage kernels, factored into NodeCore so the same code runs
// both inside the in-process transport (all nodes share one NodeCore) and
// inside a netrt worker process (one NodeCore per process, holding only the
// operators placed on that node). Everything above this layer — routing,
// queues, failure lifecycle, statistics — is the Leader's.

// partialsPool recycles the partial-result slices that carry batches between
// stages; joins grow them, so pooling the backing arrays cuts most of the
// engine's steady-state allocation.
var partialsPool = sync.Pool{New: func() any {
	s := make([]*stream.Joined, 0, 256)
	return &s
}}

func getPartials() []*stream.Joined {
	return (*partialsPool.Get().(*[]*stream.Joined))[:0]
}

// putPooled clears a scratch slice to its full capacity and returns it to
// the pool. Clearing must cover the capacity, not just the length: in-place
// filtering can leave stale references beyond len, and pooled arrays must
// not pin tuples past their window life.
func putPooled[T any](p *sync.Pool, s *[]T) {
	buf := (*s)[:cap(*s)]
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	*s = buf[:0]
	p.Put(s)
}

func putPartials(s []*stream.Joined) { putPooled(&partialsPool, &s) }

// shardScratch is the pooled per-batch workspace for the vectorized shard
// paths: counting-sort arrays that group rows (inserts) or partials (probes)
// by destination shard, per-probe match ranges, and the columnar Matches
// buffer probe results are copied into under the shard lock. Everything is
// index- or scalar-typed, so recycling needs no pointer clearing.
type shardScratch struct {
	shardOf []int32 // item → destination shard
	starts  []int32 // shard → group start in order (len nShards+1)
	cnt     []int32 // counting-sort cursors
	order   []int32 // item indices grouped by shard
	probe   []int32 // join stage: indices of partials that probe
	mstart  []int32 // per probe: match range start in matches
	mcount  []int32 // per probe: match count
	matches stream.Matches
}

var scratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

func getScratch() *shardScratch   { return scratchPool.Get().(*shardScratch) }
func putScratch(sc *shardScratch) { scratchPool.Put(sc) }

// grow32 returns s resized to length n (reallocating only to grow capacity).
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// group counting-sorts items 0..n-1 into per-shard runs using the shard
// assignments the caller wrote to sc.shardOf[:n]. Afterwards
// sc.order[sc.starts[s]:sc.starts[s+1]] lists shard s's items in input order.
func (sc *shardScratch) group(n, nShards int) {
	sc.cnt = grow32(sc.cnt, nShards)
	for i := range sc.cnt {
		sc.cnt[i] = 0
	}
	for _, sh := range sc.shardOf[:n] {
		sc.cnt[sh]++
	}
	sc.starts = grow32(sc.starts, nShards+1)
	off := int32(0)
	for i := 0; i < nShards; i++ {
		sc.starts[i] = off
		off += sc.cnt[i]
		sc.cnt[i] = sc.starts[i]
	}
	sc.starts[nShards] = off
	sc.order = grow32(sc.order, n)
	for i := 0; i < n; i++ {
		sh := sc.shardOf[i]
		sc.order[sc.cnt[sh]] = int32(i)
		sc.cnt[sh]++
	}
}

// opShard is one hash partition of a join operator's window state, guarded
// by its own lock so concurrent inserts and probes on different keys don't
// contend.
type opShard struct {
	mu     sync.Mutex
	window *stream.Window //rldlint:guardedby mu
}

// opState is the runtime state of one operator: the sharded window plus
// lock-free observed-selectivity counters.
type opState struct {
	op   query.Operator
	span float64
	// slot is the operator's stream slot in the engine's JoinSchema.
	slot   int
	shards []*opShard
	// maxTs is the operator-wide high-water application timestamp
	// (float64 bits): probes expire their shard against it, so a shard
	// that rarely receives inserts cannot serve stale tuples.
	maxTs atomic.Uint64
	// winLen is the total buffered tuple count across shards (the "pairs
	// examined" denominator a full-window probe would see).
	winLen atomic.Int64
	// in/out accumulate observed selectivity: tuples examined/passed for
	// selections, pairs/matches for joins.
	in  atomic.Int64
	out atomic.Int64
	// seen, allocated only in durable (WAL) mode, maps the TupleID of
	// every tuple ever admitted to this operator's window (pruned once the
	// tuple has aged past the window span) to its timestamp. WAL replay
	// and source re-offers re-insert batches that may overlap state the
	// snapshot or an earlier delivery already covers; filtering on seen
	// makes insertion idempotent, which is what turns at-least-once
	// delivery into exactly-once.
	seenMu      sync.Mutex
	seen        map[stream.TupleID]stream.Time //rldlint:guardedby seenMu
	seenPruneAt int                            //rldlint:guardedby seenMu
}

// dedupFilter returns b with every already-seen tuple removed, recording
// the rest as seen. It returns b itself when nothing is filtered (the
// fast path is allocation-free), a fresh filtered copy when some rows are
// duplicates, and nil when all of them are.
func (s *opState) dedupFilter(b *stream.Batch) *stream.Batch {
	n := b.Len()
	w := b.Width()
	s.seenMu.Lock()
	defer s.seenMu.Unlock()
	var out *stream.Batch
	for i := 0; i < n; i++ {
		id := stream.MakeTupleID(s.slot, b.Seq[i])
		if _, dup := s.seen[id]; dup {
			if out == nil {
				// First duplicate: lazily copy the clean prefix.
				out = stream.NewSizedBatch(b.Stream, w, n)
				for j := 0; j < i; j++ {
					copy(out.AppendRow(b.Seq[j], b.Ts[j], b.Key[j], b.Arr[j]), b.Vals[j*w:(j+1)*w])
				}
			}
			continue
		}
		s.seen[id] = b.Ts[i]
		if out != nil {
			copy(out.AppendRow(b.Seq[i], b.Ts[i], b.Key[i], b.Arr[i]), b.Vals[i*w:(i+1)*w])
		}
	}
	if len(s.seen) >= s.seenPruneAt {
		s.pruneSeenLocked()
	}
	if out == nil {
		return b
	}
	if out.Len() == 0 {
		return nil
	}
	return out
}

// pruneSeenLocked drops seen entries whose tuples have aged past the
// window span — they can no longer be in the window, and a replayed
// duplicate that old would be expired on arrival anyway. The next prune
// threshold doubles with the surviving population so the scan stays
// amortized O(1) per insert.
func (s *opState) pruneSeenLocked() {
	cutoff := stream.Time(math.Float64frombits(s.maxTs.Load()) - s.span)
	for id, ts := range s.seen {
		if ts < cutoff {
			delete(s.seen, id)
		}
	}
	s.seenPruneAt = max(1024, 2*len(s.seen))
}

// advanceTs lifts the operator's high-water timestamp to at least ts.
func (s *opState) advanceTs(ts float64) {
	bits := math.Float64bits(ts)
	for {
		old := s.maxTs.Load()
		// Non-negative float64 bit patterns order like the floats.
		if old >= bits || s.maxTs.CompareAndSwap(old, bits) {
			return
		}
	}
}

// insertBatch bulk-inserts a whole batch into the operator's sharded window:
// rows are grouped by destination shard (counting sort over the key column),
// and each shard's lock is taken once for its whole run instead of once per
// tuple. Deferring each shard's expiration to its run's max timestamp
// retains exactly the set per-tuple insertion would (expiration is a prefix
// scan, so intermediate cutoffs only evict what the final one evicts).
func (s *opState) insertBatch(b *stream.Batch, sc *shardScratch) {
	//rldlint:allow guardedby -- nil-ness is a construction-time mode flag (durable vs not), never written after; only the map contents need seenMu
	if s.seen != nil {
		if b = s.dedupFilter(b); b == nil {
			return
		}
	}
	n := b.Len()
	if n == 0 {
		return
	}
	s.advanceTs(float64(b.MaxTs()))
	nShards := len(s.shards)
	mask := uint64(nShards - 1)
	sc.shardOf = grow32(sc.shardOf, n)
	for i := 0; i < n; i++ {
		sc.shardOf[i] = int32(uint64(b.Key[i]) & mask)
	}
	sc.group(n, nShards)
	var delta int64
	for si := 0; si < nShards; si++ {
		lo, hi := sc.starts[si], sc.starts[si+1]
		if lo == hi {
			continue
		}
		sh := s.shards[si]
		sh.mu.Lock()
		before := sh.window.Len()
		sh.window.InsertRows(b, sc.order[lo:hi])
		delta += int64(sh.window.Len() - before)
		sh.mu.Unlock()
	}
	if delta != 0 {
		s.winLen.Add(delta)
	}
}

// observedSel returns the operator's observed selectivity (estimate until
// data arrives).
func (s *opState) observedSel() float64 {
	in := s.in.Load()
	if in < 32 {
		return s.op.Sel
	}
	return float64(s.out.Load()) / float64(in)
}

// normalizeConfig fills Config defaults in place and rounds the shard count
// to a power of two; both the Engine and a netrt worker normalize the same
// way so a serialized Config means the same thing on both sides.
func normalizeConfig(cfg Config) Config {
	if cfg.InboxSize < 1 {
		cfg.InboxSize = 1024
	}
	if cfg.SelectThresholdScale <= 0 {
		cfg.SelectThresholdScale = 100
	}
	if cfg.Workers < 1 {
		cfg.Workers = stdruntime.GOMAXPROCS(0)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 16
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	cfg.Shards = shards
	return cfg
}

// NodeCore is the shareable node/worker core: every operator's window state
// and the vectorized Select/Join stage kernels, with no routing, queueing,
// or failure logic attached. The in-process Engine embeds one NodeCore for
// the whole cluster; a netrt worker process wraps one and serves its hosted
// operators over the wire.
type NodeCore struct {
	q   *query.Query
	cfg Config
	// schema maps stream names to Joined part slots for this query; it
	// also owns the pool join results are recycled through.
	schema *stream.JoinSchema
	ops    []*opState
	// joinOps maps a stream name to the indices of the join operators
	// over it — precomputed so the durable ingest path can stamp WAL
	// records without a per-batch scan or allocation.
	joinOps map[string][]int
}

// NewNodeCore builds the operator state for q under cfg (normalized with
// the same defaults the Engine uses).
func NewNodeCore(q *query.Query, cfg Config) (*NodeCore, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if len(q.Streams) > 64 {
		return nil, fmt.Errorf("%w: %d streams exceed the 64-stream join schema", ErrBadPlacement, len(q.Streams))
	}
	cfg = normalizeConfig(cfg)
	c := &NodeCore{q: q, cfg: cfg, schema: stream.NewJoinSchema(q.Streams), joinOps: make(map[string][]int)}
	for i := range q.Ops {
		st := &opState{op: q.Ops[i], span: q.WindowSeconds, slot: c.schema.Slot(q.Ops[i].Stream)}
		for s := 0; s < cfg.Shards; s++ {
			st.shards = append(st.shards, &opShard{window: stream.NewWindow(q.WindowSeconds)})
		}
		if cfg.WALDir != "" && st.op.Kind == query.Join {
			st.seen = make(map[stream.TupleID]stream.Time)
			st.seenPruneAt = 1024
		}
		c.ops = append(c.ops, st)
		if q.Ops[i].Kind == query.Join {
			c.joinOps[q.Ops[i].Stream] = append(c.joinOps[q.Ops[i].Stream], i)
		}
	}
	return c, nil
}

// JoinOpsFor returns the indices of the join operators over the named
// stream (nil when none) — the operator set a WAL record for one of that
// stream's batches must target on replay.
func (c *NodeCore) JoinOpsFor(name string) []int { return c.joinOps[name] }

// Schema returns the query's join schema (decoders acquire result tuples
// through it).
func (c *NodeCore) Schema() *stream.JoinSchema { return c.schema }

// NumOps returns the operator count.
func (c *NodeCore) NumOps() int { return len(c.ops) }

// Config returns the normalized configuration.
func (c *NodeCore) Config() Config { return c.cfg }

// insertStream bulk-inserts b into the windows of every join operator over
// b's stream, one shard lock per shard per batch.
func (c *NodeCore) insertStream(b *stream.Batch, sc *shardScratch) {
	for _, st := range c.ops {
		if st.op.Kind == query.Join && st.op.Stream == b.Stream {
			st.insertBatch(b, sc)
		}
	}
}

// Insert bulk-inserts b into operator op's window — the worker-side insert
// entry point (the leader has already resolved which operators host b's
// stream on this node).
func (c *NodeCore) Insert(op int, b *stream.Batch) error {
	if op < 0 || op >= len(c.ops) {
		return fmt.Errorf("%w: insert op %d", ErrUnknownOp, op)
	}
	if c.ops[op].op.Kind != query.Join {
		return fmt.Errorf("%w: insert into non-join op %d", ErrUnknownOp, op)
	}
	sc := getScratch()
	c.ops[op].insertBatch(b, sc)
	putScratch(sc)
	return nil
}

// runStage executes one pipeline stage of operator op over partials and
// returns the surviving/extended partials plus the stage's selectivity
// sample: tuples examined and passed for selections, pairs examined and
// matches for joins. Ownership of the input slice and its tuples transfers
// to the call: consumed tuples are released, and for join stages the input
// slice itself is recycled (select stages filter in place and return the
// input slice).
func (c *NodeCore) runStage(op int, partials []*stream.Joined) (out []*stream.Joined, in, hit int64) {
	st := c.ops[op]
	switch st.op.Kind {
	case query.Select:
		threshold := st.op.Sel * c.cfg.SelectThresholdScale
		ownIn, ownOut := 0, 0
		// Filter in place: the write index never passes the read index.
		out = partials[:0]
		for _, p := range partials {
			v, ok := p.Val(st.slot, 0)
			if !ok {
				// Pass-through: the predicate applies to another
				// stream's tuples.
				out = append(out, p)
				continue
			}
			ownIn++
			if v < threshold {
				out = append(out, p)
				ownOut++
			} else {
				p.Release()
			}
		}
		// Selections report the pass fraction over their own stream's
		// tuples only; pass-throughs would dilute the signal the
		// classifier needs.
		in, hit = int64(ownIn), int64(ownOut)
	case query.Join:
		out = getPartials()
		sc := getScratch()
		// Split the batch: partials already carrying this operator's
		// stream pass through; the rest probe its window.
		sc.probe = sc.probe[:0]
		for i := range partials {
			if partials[i].Has(st.slot) {
				// Probing the operator of the batch's own stream:
				// trivially satisfied.
				out = append(out, partials[i])
				continue
			}
			sc.probe = append(sc.probe, int32(i))
		}
		if np := len(sc.probe); np > 0 {
			// Vectorized probe: hash the whole key set up front, group
			// probes by destination shard, and take each shard lock once
			// per batch — expiring the shard against the operator-wide
			// high-water timestamp, then copying every probe's matches
			// into the columnar scratch. (Per-shard windows only see
			// their own inserts, so without the expire a cold shard
			// would answer probes with tuples far older than the span.)
			nShards := len(st.shards)
			mask := uint64(nShards - 1)
			sc.shardOf = grow32(sc.shardOf, np)
			for k, pi := range sc.probe {
				sc.shardOf[k] = int32(uint64(partials[pi].Key()) & mask)
			}
			sc.group(np, nShards)
			sc.matches.Reset()
			sc.mstart = grow32(sc.mstart, np)
			sc.mcount = grow32(sc.mcount, np)
			cutoff := stream.Time(math.Float64frombits(st.maxTs.Load()) - st.span)
			var delta int64
			for si := 0; si < nShards; si++ {
				lo, hi := sc.starts[si], sc.starts[si+1]
				if lo == hi {
					continue
				}
				sh := st.shards[si]
				sh.mu.Lock()
				before := sh.window.Len()
				sh.window.ExpireBefore(cutoff)
				delta += int64(sh.window.Len() - before)
				for oi := lo; oi < hi; oi++ {
					k := sc.order[oi]
					ms := sc.matches.Len()
					sh.window.AppendMatches(partials[sc.probe[k]].Key(), &sc.matches)
					sc.mstart[k] = int32(ms)
					sc.mcount[k] = int32(sc.matches.Len() - ms)
				}
				sh.mu.Unlock()
			}
			if delta != 0 {
				st.winLen.Add(delta)
			}
			// Build extensions outside every lock, in the partials'
			// original order; consumed partials are recycled.
			winTotal := st.winLen.Load()
			for k, pi := range sc.probe {
				p := partials[pi]
				// Joins report the per-pair match probability (hits
				// over pairs examined) rather than raw fanout, so
				// observed selectivities stay in [0,1] and remain
				// comparable with the optimizer's estimates.
				in += winTotal
				n := int(sc.mcount[k])
				hit += int64(n)
				if c.cfg.MaxFanout > 0 && n > c.cfg.MaxFanout {
					n = c.cfg.MaxFanout
				}
				base := int(sc.mstart[k])
				key := p.Key()
				for mi := base; mi < base+n; mi++ {
					out = append(out, p.CloneWith(st.slot, sc.matches.Seq[mi], sc.matches.Ts[mi], key, sc.matches.Arr[mi], sc.matches.ValsAt(mi)))
				}
				p.Release()
			}
		}
		putScratch(sc)
		// The join produced a fresh slice; recycle the inbound one.
		putPartials(partials)
	}
	return out, in, hit
}

// RunStage is the bounds-checked exported form of runStage for workers
// deserializing operator indices off the wire: it returns the stage's
// selectivity sample without recording it, for the leader to add with
// AddSel.
func (c *NodeCore) RunStage(op int, partials []*stream.Joined) (out []*stream.Joined, in, hit int64, err error) {
	if op < 0 || op >= len(c.ops) {
		return nil, 0, 0, fmt.Errorf("%w: stage op %d", ErrUnknownOp, op)
	}
	out, in, hit = c.runStage(op, partials)
	return out, in, hit, nil
}

// ProcessStage runs one stage like RunStage and records its selectivity
// sample in this core's observed selectivities.
func (c *NodeCore) ProcessStage(op int, partials []*stream.Joined) ([]*stream.Joined, error) {
	out, in, hit, err := c.RunStage(op, partials)
	if err == nil {
		c.AddSel(op, in, hit)
	}
	return out, err
}

// AddSel adds one stage's selectivity sample (see runStage) to operator
// op's observed selectivity. The leader records every stage here, wherever
// it ran, so a respawned or migrated operator keeps its history.
func (c *NodeCore) AddSel(op int, in, hit int64) {
	c.ops[op].in.Add(in)
	c.ops[op].out.Add(hit)
}

// ObservedSels returns every operator's observed selectivity.
func (c *NodeCore) ObservedSels() []float64 {
	sels := make([]float64, len(c.ops))
	for i, st := range c.ops {
		sels[i] = st.observedSel()
	}
	return sels
}

// SnapshotOp snapshots operator op's current window contents into a fresh
// batch (nil for non-join operators, which carry no state).
func (c *NodeCore) SnapshotOp(op int) *stream.Batch {
	st := c.ops[op]
	if st.op.Kind != query.Join {
		return nil
	}
	b := stream.NewBatch(st.op.Stream)
	for _, sh := range st.shards {
		sh.mu.Lock()
		sh.window.Snapshot(b)
		sh.mu.Unlock()
	}
	return b
}

// ClearOp discards operator op's window state (LoseState recovery). In
// durable mode the seen set resets with the window: RestoreOp's snapshot
// re-insert repopulates it with exactly the surviving tuples, so replayed
// records dedup against the restored state rather than the lost one.
func (c *NodeCore) ClearOp(op int) {
	st := c.ops[op]
	total := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		total += sh.window.Len()
		sh.window.Reset()
		sh.mu.Unlock()
	}
	st.winLen.Add(int64(-total))
	//rldlint:allow guardedby -- nil-ness is a construction-time mode flag; ClearOp swaps in a fresh map, never nil
	if st.seen != nil {
		st.seenMu.Lock()
		st.seen = make(map[stream.TupleID]stream.Time)
		st.seenPruneAt = 1024
		st.seenMu.Unlock()
	}
}

// RestoreOp replaces operator op's window state with the given snapshot
// (nil clears it).
func (c *NodeCore) RestoreOp(op int, snap *stream.Batch) {
	c.ClearOp(op)
	if snap != nil {
		sc := getScratch()
		c.ops[op].insertBatch(snap, sc)
		putScratch(sc)
	}
}

// NewPartials returns an empty pooled partials slice (wire decoders fill it).
func (c *NodeCore) NewPartials() []*stream.Joined { return getPartials() }

// ReleasePartials releases every tuple in ps and recycles the slice —
// the counterpart of NewPartials for callers that serialized (rather than
// forwarded) the stage output.
func (c *NodeCore) ReleasePartials(ps []*stream.Joined) {
	for _, p := range ps {
		p.Release()
	}
	putPartials(ps)
}
