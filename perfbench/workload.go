package main

import (
	"fmt"
	"math"
	"math/rand"

	"rld"
	"rld/internal/stream"
)

// rusterSize is the tuples per batch ("ruster", paper §6.1).
const rusterSize = 100

// workload fixes one named benchmark configuration: the query, the
// substrate, the input mix, and the rates it runs at.
type workload struct {
	name string
	why  string
	// nominal is the fixed input rate (tuples/s) the latency, CPU and
	// lateness metrics are measured at, at most about a third of the rate
	// the workload sustains on a 2-CPU machine.
	nominal float64
	// p99LimitMS is the latency limit a ladder rung must meet.
	p99LimitMS float64
	// matchRows is the expected number of window rows one probe matches.
	matchRows float64
	// swing makes op1's pass rate a square wave across its declared
	// uncertainty range, so the classifier switches plans.
	swing bool
	// workers is the distributed worker-process count (0 = in-process).
	workers int
	// durable turns on exactly-once durability with checkpoints every
	// ckptSeconds and a scripted crash and recovery of the join node.
	durable bool
}

var workloads = []*workload{
	{
		name:       "engine-join",
		why:        "the paper's scenario in-process: probe, join-result assembly and per-batch plan classification dominate, with plan switches and no wire or WAL",
		nominal:    100000,
		p99LimitMS: 10,
		matchRows:  1,
		swing:      true,
	},
	{
		name:       "net-join",
		why:        "the same query on two worker processes: every stage is a leader-worker TCP RPC, so the netrt hop and wire codec dominate; the net substrate's only end-to-end number",
		nominal:    20000,
		p99LimitMS: 20,
		matchRows:  1,
		swing:      true,
		workers:    2,
	},
	{
		name:       "durable-ingest",
		why:        "exactly-once writes with rare matches: WAL append, fsync, barriers and replay dominate while result assembly idles, so a columnar-results gain must not move it",
		nominal:    40000,
		p99LimitMS: 25,
		matchRows:  0.1,
		durable:    true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Query shape: a 3-stream windowed join, op1 = select on S1, op2/op3 =
// joins probing S2/S3. The declared uncertainty spans op1's and op3's
// selectivities; at this level op1's range crosses a plan boundary.
const (
	// windowSeconds is the join-window length; warm-up fills it once.
	windowSeconds = 3
	// ckptSeconds is the checkpoint period of the durable workload's WAL,
	// and the barrier period of the WAL measured beside the other
	// workloads' traced chains.
	ckptSeconds = 2
	numStreams  = 3
	uncertainty = 9
	// selScale maps an operator's selectivity to its value threshold (the
	// engine default SelectThresholdScale).
	selScale = 100
	// swingPeriod is the square wave's period in seconds.
	swingPeriod = 2.0
)

func (w *workload) query() *rld.Query {
	q := rld.NewNWayJoin("B3", numStreams, 2)
	q.WindowSeconds = windowSeconds
	return q
}

func (w *workload) dims(q *rld.Query) []rld.Dim {
	return []rld.Dim{
		rld.SelDim(0, q.Ops[0].Sel, uncertainty),
		rld.SelDim(2, q.Ops[2].Sel, uncertainty),
	}
}

// optimize compiles the workload's deployment: the timed half of setup_s.
func (w *workload) optimize() (*rld.Deployment, error) {
	q := w.query()
	return rld.Optimize(q, w.dims(q), rld.NewCluster(2, 100), rld.DefaultConfig())
}

// generator produces the workload's rusters. Its output is a pure function
// of the seed and the sequence of (due time, rate) it is asked for.
type generator struct {
	rng     *rand.Rand
	streams []string
	seq     []uint64
	k       int
	// thr is op1's value threshold; lo/hi the pass rates the square wave
	// alternates between (op1's declared selectivity range).
	thr, lo, hi float64
	w           *workload
}

func newGenerator(w *workload, seed int64) *generator {
	q := w.query()
	d := w.dims(q)[0]
	return &generator{
		rng:     rand.New(rand.NewSource(seed)),
		streams: q.Streams,
		seq:     make([]uint64, len(q.Streams)),
		thr:     q.Ops[0].Sel * selScale,
		lo:      d.Lo,
		hi:      d.Hi,
		w:       w,
	}
}

// passRate returns op1's intended pass rate at application time t.
func (g *generator) passRate(t float64) float64 {
	if !g.w.swing {
		return g.thr / selScale
	}
	if int(math.Floor(t/(swingPeriod/2)))%2 == 0 {
		return g.hi
	}
	return g.lo
}

// keySpace sizes each stream's key domain so a probe matches matchRows
// window rows on average at the given total input rate.
func (g *generator) keySpace(rate float64) int64 {
	rows := rate / float64(len(g.streams)) * windowSeconds
	k := int64(math.Round(rows / g.w.matchRows))
	if k < 1 {
		k = 1
	}
	return k
}

// next returns the ruster due at app time due for total input rate rate.
// Streams take turns; every tuple carries the due time as its timestamp.
// The caller releases the batch.
func (g *generator) next(due, rate float64) *stream.Batch {
	si := g.k % len(g.streams)
	g.k++
	b := stream.AcquireBatch(g.streams[si], 1)
	keys := g.keySpace(rate)
	hi := selScale * 1.0
	if si == 0 {
		hi = g.thr / g.passRate(due)
	}
	ts := stream.Time(due)
	for i := 0; i < rusterSize; i++ {
		row := b.AppendRow(g.seq[si], ts, g.rng.Int63n(keys), ts)
		row[0] = g.rng.Float64() * hi
		g.seq[si]++
	}
	return b
}
