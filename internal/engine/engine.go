// Package engine is the live dataflow engine: the in-process stand-in for
// the paper's D-CAPE cluster used by the runnable examples and the
// cross-substrate conformance tests. Batches of real tuples flow through
// selection and windowed symmetric-hash join operators in the order of
// their assigned logical plan, hopping between nodes according to the
// robust physical plan.
//
// The package is split into one Leader and its Transport. The Leader
// (leader.go) is the RLD runtime of §3: a QueryMesh-style classifier-router
// that admits batches, assigns each its plan from the latest monitored
// statistics, queues every stage on the node hosting its operator (one
// FIFO per node, drained by the node's consumers), and runs the failure
// lifecycle — Crash sweeps a node's queue, parking it for replay or
// destroying it per the recovery mode; Recover rebuilds join-window state
// (checkpoint-restore or empty) and replays the parked backlog;
// SetSlowdown pauses part of a node's consumers. Crashed nodes report +Inf
// load so failure-aware policies can evacuate them.
//
// A Transport owns where window state lives. New runs the Leader over
// in-process worker pools: every node shares one NodeCore whose join
// windows are hash-partitioned across independently locked shards, with
// lock-free statistics and pooled messages and partials, so throughput
// scales with GOMAXPROCS. netrt runs the same Leader over worker processes
// speaking TCP.
package engine

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"rld/internal/chaos"
	"rld/internal/physical"
	"rld/internal/query"
	"rld/internal/stats"
	"rld/internal/stream"
	"rld/internal/wal"
)

// PlanChooser selects a logical plan for each batch given fresh statistics
// (core.Deployment.Classify satisfies this via an adapter; fixed-plan
// baselines use StaticChooser).
type PlanChooser interface {
	Choose(snap stats.Snapshot) query.Plan
}

// StaticChooser always returns one plan.
type StaticChooser struct{ Plan query.Plan }

// Choose implements PlanChooser.
func (s StaticChooser) Choose(stats.Snapshot) query.Plan { return s.Plan }

// ChooserFunc adapts a function to PlanChooser.
type ChooserFunc func(snap stats.Snapshot) query.Plan

// Choose implements PlanChooser.
func (f ChooserFunc) Choose(snap stats.Snapshot) query.Plan { return f(snap) }

// Config tunes the engine.
type Config struct {
	// InboxSize is the unit of a session's default in-flight bound
	// (MaxPending = InboxSize × nodes). Node queues themselves are
	// unbounded FIFOs.
	InboxSize int
	// SelectThresholdScale maps operator selectivity estimates to value
	// thresholds: a Select op passes tuples with Vals[0] <
	// Sel×Scale (Uniform(0,100) payloads → Scale 100).
	SelectThresholdScale float64
	// MaxFanout caps join results per probe to bound memory under hot
	// keys (0 = unlimited).
	MaxFanout int
	// Workers is the number of worker goroutines per node draining its
	// queue in-process (0 = GOMAXPROCS): concurrent batches on one node
	// process in parallel.
	Workers int
	// Shards is the number of hash partitions of each join operator's
	// window state, each with its own lock (0 = 16; rounded up to a
	// power of two). More shards → less insert/probe contention.
	Shards int
	// WALDir, when non-empty, turns on exactly-once durability: every
	// window mutation is logged to a write-ahead log under this directory
	// (fsync'd before it applies) and deduplicated by tuple ID on
	// insert, so Checkpoint-mode recovery replays the suffix past the
	// last snapshot to Completeness == 1.0. Empty keeps the
	// allocation-free fast path (rld.WithExactlyOnce sets it).
	WALDir string
}

// DefaultConfig returns sensible example defaults.
func DefaultConfig() Config {
	return Config{InboxSize: 1024, SelectThresholdScale: 100, MaxFanout: 64}
}

// Results summarizes an engine run.
type Results struct {
	// Produced is the number of join results emitted.
	Produced int64
	// Ingested is the number of source tuples admitted.
	Ingested int64
	// Batches is the number of batches routed.
	Batches int64
	// MeanLatencyMS is the mean ingress→sink latency per batch.
	MeanLatencyMS float64
	// PlanUse counts batches per logical plan key.
	PlanUse map[string]int64
	// PlanSwitches counts plan changes between consecutive batches.
	PlanSwitches int
	// ObservedSels reports the monitor's final per-op selectivities.
	ObservedSels []float64
	// Crashes counts Crash calls applied to the run.
	Crashes int
	// TuplesLost counts in-flight partial results discarded because a
	// node was down in LoseState mode (or still down at Stop).
	TuplesLost int64
	// Restores counts checkpoint-restores performed on recovery.
	Restores int
}

// Engine is the live engine: a Leader over in-process worker pools.
type Engine = Leader

// New builds an engine for query q with operator placement assign over
// nNodes nodes.
func New(q *query.Query, assign physical.Assignment, nNodes int, chooser PlanChooser, cfg Config) (*Engine, error) {
	core, err := NewNodeCore(q, cfg)
	if err != nil {
		return nil, err
	}
	t := &pools{core: core}
	l, err := NewLeader(q, core, assign, nNodes, chooser, t)
	if err != nil {
		return nil, err
	}
	if dir := core.Config().WALDir; dir != "" {
		// Each engine incarnation logs into its own subdirectory: the
		// process survives in-process "crashes", so the same Log instance
		// serves the whole run and never collides with another engine
		// sharing the parent directory.
		if t.dir, err = os.MkdirTemp(dir, "engine-"); err != nil {
			if mkerr := os.MkdirAll(dir, 0o755); mkerr != nil {
				return nil, fmt.Errorf("%w: %v", wal.ErrWALDir, mkerr)
			}
			if t.dir, err = os.MkdirTemp(dir, "engine-"); err != nil {
				return nil, fmt.Errorf("%w: %v", wal.ErrWALDir, err)
			}
		}
		if t.wlog, err = wal.Open(t.dir); err != nil {
			os.RemoveAll(t.dir)
			return nil, err
		}
	}
	return l, nil
}

// pools is the in-process Transport: every node's operators live in one
// shared NodeCore, a stage is a direct kernel call on the consumer
// goroutine, and a node's failure is its consumers retiring.
type pools struct {
	core *NodeCore
	// wlog is the exactly-once write-ahead log (nil without
	// Config.WALDir) under dir, set once in New and immutable after — no
	// lock guards the pointer itself. walMu orders logged inserts against
	// checkpoint barriers: InsertWindows holds the read side across its
	// append+insert pair, Barrier the write side across
	// snapshot+barrier+truncate, and Respawn the write side across
	// restore+replay — so every logged insert is either covered by the
	// snapshot before the barrier or retained after it, never split.
	wlog     *wal.Log
	dir      string
	walMu    sync.RWMutex
	launched atomic.Bool
}

func (p *pools) Consumers() int { return p.core.cfg.Workers }

func (p *pools) Launch(*Leader) { p.launched.Store(true) }

// InsertWindows bulk-inserts b into the windows of the join operators over
// its stream, one shard lock per shard per batch. In durable mode the
// mutation is logged and fsync'd first (group commit coalesces concurrent
// producers into shared fsyncs); a failed append leaves no state behind.
// Batches whose stream feeds no join window mutate nothing durable and
// skip the log.
func (p *pools) InsertWindows(b *stream.Batch, _ physical.Assignment) error {
	if p.wlog != nil {
		if ops := p.core.JoinOpsFor(b.Stream); len(ops) > 0 {
			p.walMu.RLock()
			defer p.walMu.RUnlock()
			err := p.wlog.Append(wal.Record{Ops: ops, Batch: b})
			if err == nil {
				err = p.wlog.Sync()
			}
			if err != nil {
				return err
			}
		}
	}
	sc := getScratch()
	p.core.insertStream(b, sc)
	putScratch(sc)
	return nil
}

func (p *pools) RunStage(_, op int, partials []*stream.Joined) ([]*stream.Joined, int64, int64, error) {
	out, in, hit := p.core.runStage(op, partials)
	return out, in, hit, nil
}

func (p *pools) Snapshot(_, op int) *stream.Batch { return p.core.SnapshotOp(op) }

// Move is a no-op: state is shared memory, so a migration is the routing
// swap alone, with no suspension window (DYN-style policies still account
// their modeled downtime in reports).
func (p *pools) Move(int, int, int, *stream.Batch) {}

// Kill is a no-op: the Leader retires the node's consumers.
func (p *pools) Kill(int) {}

// Respawn rebuilds the node's join windows. Operators migrated away during
// the outage kept their state (see Move). In durable mode the WAL suffix
// past the last checkpoint replays into the restored operators: the
// snapshot wound their windows back to the barrier, and the retained
// records carry everything since. Records the snapshot already covers
// re-insert as duplicates and are dropped by the per-operator dedup.
func (p *pools) Respawn(_ int, mode chaos.RecoveryMode, ops []int, snaps []*stream.Batch) error {
	if p.wlog != nil {
		p.walMu.Lock()
		defer p.walMu.Unlock()
	}
	restored := make(map[int]bool)
	for _, op := range ops {
		if mode != chaos.Checkpoint {
			p.core.ClearOp(op)
			continue
		}
		var snap *stream.Batch
		if snaps != nil {
			snap = snaps[op]
		}
		p.core.RestoreOp(op, snap)
		restored[op] = true
	}
	if p.wlog != nil && len(restored) > 0 {
		_ = p.wlog.Replay(func(r wal.Record) error {
			for _, op := range r.Ops {
				if restored[op] {
					_ = p.core.Insert(op, r.Batch)
				}
			}
			return nil
		})
	}
	return nil
}

// Barrier holds the write lock across pull and the WAL cut, so the
// snapshot, the barrier, and the truncation form one atomic cut: every
// logged insert is either inside the snapshot (and dropped by Truncate) or
// after the barrier (and replayed on recovery).
func (p *pools) Barrier(pull func() []bool) {
	if p.wlog == nil {
		pull()
		return
	}
	p.walMu.Lock()
	defer p.walMu.Unlock()
	pull()
	if err := p.wlog.Barrier(); err == nil {
		// Only drop segments the barrier proved durable.
		_ = p.wlog.Truncate()
	}
}

// Slow is a no-op: the Leader pauses part of the node's consumers.
func (p *pools) Slow(int, float64) {}

// Close closes the WAL; a never-launched engine logged nothing, so its
// directory goes too.
func (p *pools) Close() {
	if p.wlog == nil {
		return
	}
	_ = p.wlog.Close()
	if !p.launched.Load() {
		os.RemoveAll(p.dir)
	}
}
