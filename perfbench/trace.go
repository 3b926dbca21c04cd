package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rld"
	"rld/internal/core"
	"rld/internal/engine"
	"rld/internal/netrt"
	"rld/internal/query"
	"rld/internal/stats"
	"rld/internal/stream"
	"rld/internal/wal"
	"rld/internal/wire"
)

// perLayer names the metrics the final JSON line carries with --trace 1;
// it mirrors BENCHMARK.json.
var perLayer = []string{
	"core.classify_ns_per_batch", "core.classify_share", "core.plan_switches", "core.optimize_s",
	"stats.offer_ns",
	"stream.insert_ns_per_tuple", "stream.probe_ns_per_probe", "stream.result_build_ns_per_result", "stream.window_rows",
	"engine.select_stage_ns_per_tuple", "engine.join_stage_ns_per_tuple", "engine.insert_ns_per_tuple",
	"engine.results_per_probe", "engine.ingest_call_us_p50", "engine.ingest_call_us_p99", "engine.pending_peak",
	"wire.batch_encode_ns_per_tuple", "wire.batch_decode_ns_per_tuple", "wire.batch_bytes_per_tuple",
	"netrt.hop_rtt_us", "netrt.batch_pipeline_ms", "netrt.spawn_s",
	"wal.append_ns_per_batch", "wal.sync_ms", "wal.syncs_per_append", "wal.bytes_per_tuple", "wal.barrier_ms",
	"wal.replay_ms_per_mb",
	"trace.chain_us_per_batch", "trace.chain_coverage", "trace.overhead_frac",
}

const (
	// minCoverage is the breakdown check: the layers' spans must cover at
	// least this share of the traced chain's time.
	minCoverage = 0.90
	// statsEvery mirrors the engine's stats-offer period in batches.
	statsEvery = 8
	// walSidecarEvery samples the WAL on every n-th join-stream batch on
	// workloads whose chain has no WAL, so fsyncs do not dominate the run.
	walSidecarEvery = 4
	// netRate is the input rate (tuples/s) the netrt phase paces at.
	netRate = 20000
	// pings is the number of one-tuple round trips netrt.hop_rtt_us takes
	// the median of.
	pings = 200
)

// span is one timed call: its name, the span that caused it, the batch it
// served, and its interval since the tracer started.
type span struct {
	name       string
	id, parent int32
	batch      int32
	start, end time.Duration
}

// tracer keeps spans in memory; when off, begin and end do nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, batch int32) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, batch: batch, start: time.Since(t.t0)})
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = time.Since(t.t0)
	}
}

// layerTimes sums span durations by name, and self times by where the
// span sits: "root/name" ("name" for a root span). Self time is a span's
// duration minus the time its children cover; children of one span run
// one after another, so their durations add.
type layerTimes struct {
	total map[string]time.Duration
	calls map[string]int64
	self  map[string]time.Duration
	paths map[string]int64
	// covered is, over every root span named "chain", the time its
	// children cover.
	covered, chain time.Duration
}

func (t *tracer) times() layerTimes {
	lt := layerTimes{
		total: map[string]time.Duration{}, calls: map[string]int64{},
		self: map[string]time.Duration{}, paths: map[string]int64{},
	}
	child := make([]time.Duration, len(t.spans))
	root := make([]int32, len(t.spans))
	for i, s := range t.spans {
		root[i] = int32(i)
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			root[i] = root[s.parent]
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.total[s.name] += d
		lt.calls[s.name]++
		path := s.name
		if root[i] != int32(i) {
			path = t.spans[root[i]].name + "/" + s.name
		}
		lt.self[path] += d - child[i]
		lt.paths[path]++
		if s.parent < 0 && s.name == "chain" {
			lt.chain += d
			lt.covered += child[i]
		}
	}
	return lt
}

// write dumps the spans as tab-separated lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "batch\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.batch, s.id, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counts are the work tallies the per-layer ratios divide by.
type counts struct {
	inserted, selectIn, joinIn, probes int64
	joinOut                            int64
	offers                             int64
	walAppends, walTuples, walBytes    int64
	walAppendsTotal, walSyncsTotal     uint64
	barriers                           int64
	sideInserted, sideProbes           int64
	sideResults, windowRows            int64
	wireTuples, wireBytes              int64
	replayBytes                        int64
	replay                             time.Duration
}

// rig is the per-pass state: one node core holding every operator, the
// statistics monitor, a WAL, and the standalone stream-layer windows.
type rig struct {
	w      *workload
	dep    *core.Deployment
	q      *query.Query
	nc     *engine.NodeCore
	schema *stream.JoinSchema
	mon    *stats.Monitor
	snap   stats.Snapshot
	rates  map[string]float64
	log    *wal.Log
	ck     *checker
	tr     *tracer
	// c points at traced or plain: the tallies of the batches being
	// traced, or of the rest.
	c             *counts
	traced, plain counts
	unsound       int64

	windows map[string]*stream.Window
	matches stream.Matches
	rows    []int32
	enc     wire.Enc
	walDir  string
	nextCkp float64
}

func newRig(w *workload, dep *core.Deployment, walDir string, tr *tracer) (*rig, error) {
	q := dep.Query
	cfg := engine.DefaultConfig()
	if w.durable {
		// Durable mode turns on the node core's tuple-ID dedup.
		cfg.WALDir = walDir
	}
	nc, err := engine.NewNodeCore(q, cfg)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(walDir)
	if err != nil {
		return nil, err
	}
	r := &rig{
		w: w, dep: dep, q: q, nc: nc, schema: nc.Schema(),
		mon:     stats.NewMonitor(len(q.Ops), 0.5, 0),
		rates:   map[string]float64{},
		log:     log,
		ck:      newChecker(w),
		tr:      tr,
		windows: map[string]*stream.Window{},
		walDir:  walDir,
		nextCkp: ckptSeconds,
	}
	r.snap = r.mon.Snapshot()
	for _, op := range q.Ops {
		if op.Kind == query.Join {
			r.windows[op.Stream] = stream.NewWindow(q.WindowSeconds)
		}
	}
	return r, nil
}

// chain replays one batch through the layers in the order Engine.Ingest
// and the stage workers call them, one span per call under a root span,
// and returns its duration. The durable workload's chain includes the WAL
// append, fsync and checkpoint barriers (only when logged is set: warm-up
// skips them).
func (r *rig) chain(b *stream.Batch, k int32, logged bool) time.Duration {
	tr := r.tr
	t0 := time.Now()
	root := tr.begin("chain", -1, k)

	s := tr.begin("core.classify", root, k)
	plan, _ := r.dep.Classify(r.snap)
	tr.end(s)

	ops := r.nc.JoinOpsFor(b.Stream)
	if r.w.durable && logged && len(ops) > 0 {
		r.walAppend(b, ops, root, k)
	}

	if k%statsEvery == 0 {
		s = tr.begin("stats.offer", root, k)
		if r.mon.Offer(float64(b.MaxTs()), r.nc.ObservedSels(), r.rates) {
			r.snap = r.mon.Snapshot()
		}
		tr.end(s)
		r.c.offers++
	}
	r.rates[b.Stream] += float64(b.Len())

	s = tr.begin("engine.insert", root, k)
	for _, op := range ops {
		_ = r.nc.Insert(op, b)
	}
	tr.end(s)
	r.c.inserted += int64(b.Len() * len(ops))

	// Seeding one partial per tuple copies Engine.Ingest's loop, so it
	// has no span of its own: its time is the chain's glue.
	slot := r.schema.Slot(b.Stream)
	partials := r.nc.NewPartials()
	for i := 0; i < b.Len(); i++ {
		j := r.schema.Acquire()
		j.SetPart(slot, b.Seq[i], b.Ts[i], b.Key[i], b.Arr[i], b.ValsAt(i))
		partials = append(partials, j)
	}

	for _, op := range plan {
		in := int64(len(partials))
		if r.q.Ops[op].Kind == query.Select {
			s = tr.begin("engine.stage.select", root, k)
			partials, _ = r.nc.ProcessStage(op, partials)
			tr.end(s)
			r.c.selectIn += in
		} else {
			opSlot := r.schema.Slot(r.q.Ops[op].Stream)
			pass := int64(0)
			for _, p := range partials {
				if p.Has(opSlot) {
					pass++
				}
			}
			s = tr.begin("engine.stage.join", root, k)
			partials, _ = r.nc.ProcessStage(op, partials)
			tr.end(s)
			r.c.joinIn += in
			r.c.probes += in - pass
			r.c.joinOut += int64(len(partials)) - pass
		}
		if len(partials) == 0 {
			break
		}
	}

	if r.w.durable && logged && float64(b.MaxTs()) >= r.nextCkp {
		r.barrier(root, k, float64(b.MaxTs()))
	}
	tr.end(root)
	d := time.Since(t0)

	// The results leave the chain here: checking and releasing them is
	// the consumer's work, so neither is part of the chain's time.
	for _, p := range partials {
		if r.ck.check(p) != nil {
			r.unsound++
		}
	}
	r.nc.ReleasePartials(partials)
	return d
}

// sidecars measures the layers the workload's chain does not block on:
// the WAL (when the chain has none), the stream layer's windows and
// results, and the wire codec, each under its own root span.
func (r *rig) sidecars(b *stream.Batch, k int32) {
	if ops := r.nc.JoinOpsFor(b.Stream); !r.w.durable && len(ops) > 0 && k%walSidecarEvery == 0 {
		root := r.tr.begin("wal.sidecar", -1, k)
		r.walAppend(b, ops, root, k)
		if float64(b.MaxTs()) >= r.nextCkp {
			r.barrier(root, k, float64(b.MaxTs()))
		}
		r.tr.end(root)
	}
	r.streamSide(b, k)
	r.wireSide(b, k)
}

// walAppend logs b and waits for it to be durable, as Engine.Ingest does
// before a window insert.
func (r *rig) walAppend(b *stream.Batch, ops []int, parent, k int32) {
	s := r.tr.begin("wal.append", parent, k)
	_ = r.log.Append(wal.Record{Ops: ops, Batch: b})
	r.tr.end(s)
	s = r.tr.begin("wal.sync", parent, k)
	_ = r.log.Sync()
	r.tr.end(s)
	r.enc.B = r.enc.B[:0]
	wal.EncodeRecord(&r.enc, wal.Record{Ops: ops, Batch: b})
	r.c.walAppends++
	r.c.walTuples += int64(b.Len())
	r.c.walBytes += int64(len(r.enc.B)) + 8 // u32 length + u32 CRC frame header
}

// barrier is a checkpoint's WAL half: barrier record, fsync and rotation,
// then truncation of the segments before it. now is the application time.
func (r *rig) barrier(parent, k int32, now float64) {
	s := r.tr.begin("wal.barrier", parent, k)
	_ = r.log.Barrier()
	_ = r.log.Truncate()
	r.tr.end(s)
	r.c.barriers++
	for r.nextCkp <= now {
		r.nextCkp += ckptSeconds
	}
}

// streamSide replays b against standalone windows: insert with expiry,
// probes of every other join stream's window, and assembly of each match
// into a join result.
func (r *rig) streamSide(b *stream.Batch, k int32) {
	tr := r.tr
	root := tr.begin("stream.sidecar", -1, k)
	n := b.Len()
	if win := r.windows[b.Stream]; win != nil {
		r.rows = r.rows[:0]
		for i := 0; i < n; i++ {
			r.rows = append(r.rows, int32(i))
		}
		s := tr.begin("stream.insert", root, k)
		win.InsertRows(b, r.rows)
		win.ExpireBefore(b.MaxTs().Add(-win.Span()))
		tr.end(s)
		r.c.sideInserted += int64(n)
	}
	slot := r.schema.Slot(b.Stream)
	for _, name := range r.q.Streams {
		win := r.windows[name]
		if win == nil || name == b.Stream {
			continue
		}
		r.matches.Reset()
		s := tr.begin("stream.probe", root, k)
		for i := 0; i < n; i++ {
			win.AppendMatches(b.Key[i], &r.matches)
		}
		tr.end(s)
		r.c.sideProbes += int64(n)
		// Matches come back in probe order; assemble each one against
		// the batch's first row (the copy cost is the same for any row).
		other := r.schema.Slot(name)
		m := &r.matches
		s = tr.begin("stream.result_build", root, k)
		base := r.schema.Acquire()
		base.SetPart(slot, b.Seq[0], b.Ts[0], b.Key[0], b.Arr[0], b.ValsAt(0))
		for mi := 0; mi < m.Len(); mi++ {
			res := base.CloneWith(other, m.Seq[mi], m.Ts[mi], b.Key[0], m.Arr[mi], m.ValsAt(mi))
			res.Release()
		}
		base.Release()
		tr.end(s)
		r.c.sideResults += int64(m.Len())
	}
	tr.end(root)
}

// wireSide round-trips b through the batch codec.
func (r *rig) wireSide(b *stream.Batch, k int32) {
	tr := r.tr
	root := tr.begin("wire.sidecar", -1, k)
	s := tr.begin("wire.encode", root, k)
	r.enc.B = r.enc.B[:0]
	wire.EncodeBatch(&r.enc, b)
	tr.end(s)
	s = tr.begin("wire.decode", root, k)
	d := wire.Dec{B: r.enc.B}
	_, _ = wire.DecodeBatch(&d)
	tr.end(s)
	tr.end(root)
	r.c.wireTuples += int64(b.Len())
	r.c.wireBytes += int64(len(r.enc.B))
}

// finish replays the retained WAL, takes a last checkpoint barrier and
// closes the log.
func (r *rig) finish() error {
	size, err := dirBytes(r.walDir)
	if err != nil {
		return err
	}
	r.tr.on, r.c = true, &r.traced
	root := r.tr.begin("wal.finish", -1, -1)
	s := r.tr.begin("wal.replay", root, -1)
	t0 := time.Now()
	err = r.log.Replay(func(wal.Record) error { return nil })
	r.c.replay = time.Since(t0)
	r.tr.end(s)
	r.c.replayBytes = size
	if err != nil {
		return err
	}
	r.barrier(root, -1, r.nextCkp)
	r.tr.end(root)
	r.c.walAppendsTotal, r.c.walSyncsTotal, _ = r.log.Stats()
	return r.log.Close()
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// replay is what the replay pass measured.
type replay struct {
	// c tallies the traced batches; traced and plain are the chain times
	// of the traced and the untraced batches.
	c             counts
	traced, plain []time.Duration
	unsound       int64
}

// replayPass runs the chain over the workload's batches at its nominal
// rate: one window of warm-up without WAL or side measurements, then
// measured batches until the deadline. It traces alternate blocks of
// statsEvery batches (each block holds one stats offer), so traced and
// untraced batches see the same state and the same host.
func replayPass(w *workload, dep *core.Deployment, seed int64, walDir string, tr *tracer, deadline time.Time) (*replay, error) {
	r, err := newRig(w, dep, walDir, tr)
	if err != nil {
		return nil, err
	}
	r.c = &r.plain
	g := newGenerator(w, seed)
	interval := rusterSize / w.nominal
	tr.on = false
	k := int32(0)
	for ; float64(k)*interval < windowSeconds; k++ {
		b := g.next(float64(k)*interval, w.nominal)
		r.chain(b, k, false)
		b.Release()
	}
	r.plain = counts{}
	r.nextCkp = float64(k)*interval + ckptSeconds
	res := &replay{}
	tr.t0 = time.Now()
	for ; time.Now().Before(deadline); k++ {
		tr.on = (k/statsEvery)%2 == 1
		r.c = &r.plain
		if tr.on {
			r.c = &r.traced
		}
		b := g.next(float64(k)*interval, w.nominal)
		d := r.chain(b, k, true)
		if tr.on {
			res.traced = append(res.traced, d)
		} else {
			res.plain = append(res.plain, d)
		}
		r.sidecars(b, k)
		b.Release()
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	for _, win := range r.windows {
		r.traced.windowRows += int64(win.Len())
	}
	res.c, res.unsound = r.traced, r.unsound
	return res, nil
}

// pipelinePhase opens the workload's Pipeline once and runs it open loop at
// nominal for one window of warm-up plus dur seconds, for the metrics only
// the running system has: Ingest call times, backlog and plan switches.
type pipelinePhase struct {
	calls             []wsample
	pendingPeak       int64
	planSwitches      int
	attempted, failed int64
	problems          []string
}

func runPipelinePhase(ctx context.Context, w *workload, seed int64, dur float64, walRoot string) (*pipelinePhase, error) {
	// The scripted crash lies beyond the phase's end: the durable pipeline
	// only checkpoints here.
	pipe, err := openPipeline(ctx, w, filepath.Join(walRoot, "pipe"), windowSeconds+dur+1)
	if err != nil {
		return nil, err
	}
	o := newOpenLoop(w, pipe, seed, time.Now())
	o.run(ctx, w.nominal, windowSeconds)
	ps := o.run(ctx, w.nominal, dur)
	serr := o.settle()
	st := pipe.Stats()
	rep, err := pipe.Close(ctx)
	<-o.drainDone
	if serr != nil {
		return nil, serr
	}
	if err != nil {
		return nil, err
	}
	res := &pipelinePhase{pendingPeak: o.pendingPeak, planSwitches: st.PlanSwitches, attempted: o.batches}
	for _, c := range ps.calls {
		res.calls = append(res.calls, wsample{v: c, n: 1})
	}
	res.failed, res.problems = o.failures(rep, pipe.Stats())
	return res, nil
}

// netPhase measures the leader-worker hop on a two-worker cluster: spawn
// time, one-tuple round trips on empty windows, and the ingress-to-sink
// time of the workload's batches paced at netRate.
type netPhase struct {
	spawn           time.Duration
	hop, pipelineMS float64
}

func runNetPhase(ctx context.Context, w *workload, dep *core.Deployment, seed int64, dur float64) (*netPhase, error) {
	q := dep.Query
	t0 := time.Now()
	c, err := netrt.NewCluster(q, dep.Physical.Assign, 2, netrt.ClusterConfig{Engine: engine.DefaultConfig()})
	if err != nil {
		return nil, err
	}
	res := &netPhase{spawn: time.Since(t0)}
	defer c.Stop()
	plan, _ := dep.Classify(stats.Snapshot{})
	c.SetChooser(engine.StaticChooser{Plan: plan})
	var mu sync.Mutex
	var lat []float64
	c.SetResultObserver(func(_ []*stream.Joined, ingress time.Time) {
		d := time.Since(ingress)
		mu.Lock()
		lat = append(lat, float64(d)/float64(time.Millisecond))
		mu.Unlock()
	})
	c.Start()

	// A passing op1 tuple on empty windows runs every stage up to and
	// including the first join, which finds nothing.
	hops := 0
	for _, op := range plan {
		hops++
		if q.Ops[op].Kind == query.Join {
			break
		}
	}
	var rtts []float64
	for i := 0; i < pings; i++ {
		b := stream.NewSizedBatch(q.Ops[0].Stream, 1, 1)
		b.AppendRow(uint64(i), 0, 0, 0)
		t := time.Now()
		if err := c.Ingest(b); err != nil {
			return nil, err
		}
		c.Drain()
		rtts = append(rtts, float64(time.Since(t))/float64(time.Microsecond)/float64(hops))
	}
	res.hop = median(rtts)

	g := newGenerator(w, seed)
	interval := rusterSize / float64(netRate)
	start := time.Now()
	for k := 0; float64(k)*interval < windowSeconds+dur; k++ {
		due := float64(k) * interval
		if due >= windowSeconds && due-interval < windowSeconds {
			c.Drain()
			mu.Lock()
			lat = lat[:0]
			mu.Unlock()
		}
		b := g.next(due, netRate)
		sleepUntil(start.Add(time.Duration(due * float64(time.Second))))
		err := c.Ingest(b)
		b.Release()
		if err != nil {
			return nil, err
		}
		if err := c.AwaitPending(ctx, maxPending, nil); err != nil {
			return nil, err
		}
	}
	c.Drain()
	mu.Lock()
	res.pipelineMS = median(lat)
	mu.Unlock()
	return res, nil
}

// runTraced is the traced run: the Pipeline phase, the replay of the
// workload's batches through each layer's calls, and the netrt phase. It
// reports the per-layer metrics, the breakdown check and the tracing
// overhead.
func runTraced(ctx context.Context, w *workload, seed int64, seconds float64, walRoot, outDir string) (*report, error) {
	var opt []float64
	var dep *core.Deployment
	for i := 0; i < setupReps; i++ {
		q := w.query()
		t0 := time.Now()
		d, err := core.Optimize(q, w.dims(q), rld.NewCluster(2, 100), core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		opt = append(opt, time.Since(t0).Seconds())
		dep = d
	}

	// Ingest p99 needs at least 1000 calls.
	pdur := max(0.25*seconds, 1100*rusterSize/w.nominal)
	pp, err := runPipelinePhase(ctx, w, seed, pdur, walRoot)
	if err != nil {
		return nil, fmt.Errorf("pipeline phase: %w", err)
	}

	tr := &tracer{}
	rp, err := replayPass(w, dep, seed, filepath.Join(walRoot, "replay"), tr, time.Now().Add(time.Duration(0.4*seconds*float64(time.Second))))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	c := rp.c

	np, err := runNetPhase(ctx, w, dep, seed, 0.1*seconds)
	if err != nil {
		return nil, fmt.Errorf("netrt phase: %w", err)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.tsv", w.name, seed))
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}

	lt := tr.times()
	per := func(name string, n int64) float64 { return float64(lt.total[name]) / float64(max(n, 1)) }
	ms := float64(time.Millisecond)
	r := &report{attempted: pp.attempted + int64(len(rp.traced)+len(rp.plain)), failed: pp.failed + rp.unsound, problems: pp.problems}
	if rp.unsound > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d unsound results in the replay", rp.unsound))
	}
	r.add("core.classify_ns_per_batch", per("core.classify", lt.calls["core.classify"]), "ns", "")
	r.add("core.classify_share", float64(lt.total["core.classify"])/float64(lt.chain), "ratio", "§6.5 overhead")
	r.add("core.plan_switches", float64(pp.planSwitches), "count", "pipeline phase")
	r.add("core.optimize_s", median(opt), "s", fmt.Sprintf("median of %d", len(opt)))
	r.add("stats.offer_ns", per("stats.offer", c.offers), "ns", "")
	r.add("stream.insert_ns_per_tuple", per("stream.insert", c.sideInserted), "ns", "InsertRows+ExpireBefore")
	r.add("stream.probe_ns_per_probe", per("stream.probe", c.sideProbes), "ns", "AppendMatches")
	r.add("stream.result_build_ns_per_result", per("stream.result_build", c.sideResults), "ns", "Acquire+CloneWith+Release")
	r.add("stream.window_rows", float64(c.windowRows), "count", "")
	r.add("engine.select_stage_ns_per_tuple", per("engine.stage.select", c.selectIn), "ns", "")
	r.add("engine.join_stage_ns_per_tuple", per("engine.stage.join", c.joinIn), "ns", "")
	r.add("engine.insert_ns_per_tuple", per("engine.insert", c.inserted), "ns", "")
	r.add("engine.results_per_probe", float64(c.joinOut)/float64(max(c.probes, 1)), "ratio", "")
	p50, _ := percentile(pp.calls, 0.50)
	p99, ok := percentile(pp.calls, 0.99)
	r.add("engine.ingest_call_us_p50", p50, "us", fmt.Sprintf("n=%d", len(pp.calls)))
	if ok {
		r.add("engine.ingest_call_us_p99", p99, "us", fmt.Sprintf("n=%d", len(pp.calls)))
	}
	r.add("engine.pending_peak", float64(pp.pendingPeak), "count", "")
	r.add("wire.batch_encode_ns_per_tuple", per("wire.encode", c.wireTuples), "ns", "")
	r.add("wire.batch_decode_ns_per_tuple", per("wire.decode", c.wireTuples), "ns", "")
	r.add("wire.batch_bytes_per_tuple", float64(c.wireBytes)/float64(max(c.wireTuples, 1)), "bytes", "")
	r.add("netrt.hop_rtt_us", np.hop, "us", fmt.Sprintf("median of %d", pings))
	r.add("netrt.batch_pipeline_ms", np.pipelineMS, "ms", fmt.Sprintf("median at %d tuples/s", netRate))
	r.add("netrt.spawn_s", np.spawn.Seconds(), "s", "")
	r.add("wal.append_ns_per_batch", per("wal.append", c.walAppends), "ns", "")
	r.add("wal.sync_ms", per("wal.sync", c.walAppends)/ms, "ms", "")
	r.add("wal.syncs_per_append", float64(c.walSyncsTotal)/float64(max(c.walAppendsTotal, 1)), "ratio", "")
	r.add("wal.bytes_per_tuple", float64(c.walBytes)/float64(max(c.walTuples, 1)), "bytes", "")
	r.add("wal.barrier_ms", per("wal.barrier", c.barriers)/ms, "ms", fmt.Sprintf("%d barriers", c.barriers))
	r.add("wal.replay_ms_per_mb", float64(c.replay)/ms/(float64(c.replayBytes)/(1<<20)), "ms", fmt.Sprintf("%d bytes", c.replayBytes))

	var sumPlain, sumTraced time.Duration
	for _, d := range rp.plain {
		sumPlain += d
	}
	for _, d := range rp.traced {
		sumTraced += d
	}
	plainMean := float64(sumPlain) / float64(len(rp.plain))
	tracedMean := float64(sumTraced) / float64(len(rp.traced))
	coverage := float64(lt.covered) / float64(lt.chain)
	r.add("trace.chain_us_per_batch", plainMean/float64(time.Microsecond), "us", fmt.Sprintf("untraced, %d batches", len(rp.plain)))
	r.add("trace.chain_coverage", coverage, "ratio", fmt.Sprintf("check >= %.2f", minCoverage))
	r.add("trace.overhead_frac", tracedMean/plainMean-1, "ratio", fmt.Sprintf("traced vs untraced chain time, %d traced batches", len(rp.traced)))
	if coverage < minCoverage {
		r.problems = append(r.problems, fmt.Sprintf("breakdown: layer spans cover %.3f of the chain, want >= %.2f", coverage, minCoverage))
	}
	r.breakdown = breakdownLines(lt)
	r.notes = append(r.notes, "spans written to "+spanFile)
	return r, nil
}

// breakdownLines renders self time per span path, the chain's first with
// their share of the chain, then the side measurements; largest first
// within each.
func breakdownLines(lt layerTimes) []string {
	paths := sortedKeys(lt.self)
	inChain := func(p string) bool { return p == "chain" || strings.HasPrefix(p, "chain/") }
	sort.SliceStable(paths, func(i, j int) bool {
		if a, b := inChain(paths[i]), inChain(paths[j]); a != b {
			return a
		}
		return lt.self[paths[i]] > lt.self[paths[j]]
	})
	var out []string
	for _, p := range paths {
		share := ""
		if inChain(p) {
			share = fmt.Sprintf("%6.2f%% of chain", 100*float64(lt.self[p])/float64(lt.chain))
		}
		out = append(out, fmt.Sprintf("%-34s calls=%-8d self=%-12v %s", p, lt.paths[p], lt.self[p].Round(time.Microsecond), share))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
