package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rld/internal/cluster"
	"rld/internal/optimizer"
	"rld/internal/paramspace"
	"rld/internal/query"
	"rld/internal/stats"
)

// classifyCase is one deployment the classifier is pinned on.
type classifyCase struct {
	name string
	dep  *Deployment
}

// classifyCases compiles deployments spanning ε 0.05/0.2, uncertainty
// 2–9, 3–5 operators, a rate dimension, and an exhaustive (unit-region)
// solution. The first is shaped like the open-loop benchmark's.
func classifyCases(t testing.TB) []classifyCase {
	t.Helper()
	type spec struct {
		name  string
		ops   int
		dims  func(q *query.Query) []paramspace.Dim
		nodes int
		cap   float64
		eps   float64
		algo  LogicalAlgo
		steps int
	}
	specs := []spec{
		{name: "bench-3op-u9", ops: 3, nodes: 2, cap: 100, eps: 0.2, dims: func(q *query.Query) []paramspace.Dim {
			return []paramspace.Dim{paramspace.SelDim(0, q.Ops[0].Sel, 9), paramspace.SelDim(2, q.Ops[2].Sel, 9)}
		}},
		{name: "5op-u3-eps0.05", ops: 5, nodes: 3, cap: 60, eps: 0.05, dims: fixtureDims},
		{name: "4op-u2", ops: 4, nodes: 3, cap: 60, eps: 0.2, dims: func(q *query.Query) []paramspace.Dim {
			return []paramspace.Dim{paramspace.SelDim(0, q.Ops[0].Sel, 2), paramspace.SelDim(2, q.Ops[2].Sel, 2)}
		}},
		{name: "4op-rate-eps0.05", ops: 4, nodes: 3, cap: 60, eps: 0.05, dims: func(q *query.Query) []paramspace.Dim {
			return []paramspace.Dim{paramspace.SelDim(1, q.Ops[1].Sel, 5), paramspace.RateDim("S3", q.Rates["S3"], 5)}
		}},
		{name: "5op-3d-u9-eps0.05", ops: 5, nodes: 3, cap: 80, eps: 0.05, steps: 8, dims: func(q *query.Query) []paramspace.Dim {
			return []paramspace.Dim{
				paramspace.SelDim(0, q.Ops[0].Sel, 9),
				paramspace.SelDim(2, q.Ops[2].Sel, 9),
				paramspace.SelDim(4, q.Ops[4].Sel, 9),
			}
		}},
		{name: "4op-es", ops: 4, nodes: 3, cap: 60, eps: 0.2, algo: LogicalES, steps: 8, dims: func(q *query.Query) []paramspace.Dim {
			return []paramspace.Dim{paramspace.SelDim(0, q.Ops[0].Sel, 5), paramspace.SelDim(3, q.Ops[3].Sel, 5)}
		}},
	}
	out := make([]classifyCase, 0, len(specs))
	for _, sp := range specs {
		q := query.NewNWayJoin("C", sp.ops, 2)
		cfg := DefaultConfig()
		cfg.Robust.Epsilon = sp.eps
		if sp.algo != "" {
			cfg.Logical = sp.algo
		}
		if sp.steps > 0 {
			cfg.Steps = sp.steps
		}
		d, err := Optimize(q, sp.dims(q), cluster.NewHomogeneous(sp.nodes, sp.cap), cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		out = append(out, classifyCase{name: sp.name, dep: d})
	}
	return out
}

// gridSnapshot returns a snapshot whose statistics sit exactly on grid
// point g; undeclared statistics keep the query's estimates.
func gridSnapshot(d *Deployment, g paramspace.GridPoint) stats.Snapshot {
	snap := stats.Snapshot{Sels: make([]float64, len(d.Query.Ops)), Rates: make(map[string]float64, len(d.Query.Rates))}
	for i, op := range d.Query.Ops {
		snap.Sels[i] = op.Sel
	}
	for s, r := range d.Query.Rates {
		snap.Rates[s] = r
	}
	for j, dim := range d.Space.Dims {
		switch dim.Kind {
		case paramspace.Selectivity:
			snap.Sels[dim.Op] = d.Space.Value(j, g[j])
		case paramspace.Rate:
			snap.Rates[dim.Stream] = d.Space.Value(j, g[j])
		}
	}
	return snap
}

// gridSnapshots returns one snapshot per grid point of d's space.
func gridSnapshots(d *Deployment) []stats.Snapshot {
	var out []stats.Snapshot
	d.Space.FullRegion().ForEach(func(g paramspace.GridPoint) bool {
		out = append(out, gridSnapshot(d, g))
		return true
	})
	return out
}

// randomSnapshots returns n snapshots with every declared statistic drawn
// from twice its dimension's range (so about half fall outside it), plus
// zero, negative and missing values the classifier must ignore.
func randomSnapshots(d *Deployment, rng *rand.Rand, n int) []stats.Snapshot {
	out := make([]stats.Snapshot, 0, n)
	for k := 0; k < n; k++ {
		snap := gridSnapshot(d, d.Space.Center())
		for _, dim := range d.Space.Dims {
			w := dim.Hi - dim.Lo
			v := dim.Lo - w/2 + 2*w*rng.Float64()
			switch rng.Intn(8) {
			case 0:
				v = 0
			case 1:
				v = -v
			}
			switch dim.Kind {
			case paramspace.Selectivity:
				snap.Sels[dim.Op] = v
			case paramspace.Rate:
				if rng.Intn(8) == 0 {
					delete(snap.Rates, dim.Stream)
				} else {
					snap.Rates[dim.Stream] = v
				}
			}
		}
		if rng.Intn(16) == 0 {
			snap.Sels = nil
		}
		out = append(out, snap)
	}
	return out
}

// Reference classifier paths.
const (
	pathNoPlans = iota
	pathNoSupported
	pathRegion
	pathFallback
)

// referenceClassify is the classifier as first written, kept as the
// oracle for the allocation-free one: fresh point and grid vectors per
// call, and each supported plan's regions found by its key in the robust
// solution. It also reports which path decided.
func referenceClassify(d *Deployment, snap stats.Snapshot) (query.Plan, int, int) {
	pnt := make(paramspace.Point, d.Space.D())
	for i, dim := range d.Space.Dims {
		v := dim.Base
		switch dim.Kind {
		case paramspace.Selectivity:
			if dim.Op >= 0 && dim.Op < len(snap.Sels) && snap.Sels[dim.Op] > 0 {
				v = snap.Sels[dim.Op]
			}
		case paramspace.Rate:
			if r, ok := snap.Rates[dim.Stream]; ok && r > 0 {
				v = r
			}
		}
		pnt[i] = math.Min(math.Max(v, dim.Lo), dim.Hi)
	}
	g := make(paramspace.GridPoint, d.Space.D())
	for i, dim := range d.Space.Dims {
		if dim.Hi == dim.Lo {
			continue
		}
		k := int(math.Round((pnt[i] - dim.Lo) / (dim.Hi - dim.Lo) * float64(d.Space.Steps-1)))
		g[i] = min(max(k, 0), d.Space.Steps-1)
	}
	if len(d.Plans) == 0 {
		p, _ := optimizer.NewRank(d.Ev).Best(pnt)
		return p, -1, pathNoPlans
	}
	supported := d.Physical.Supported
	if len(supported) == 0 {
		best := 0
		for i := range d.Plans {
			if d.Plans[i].Weight > d.Plans[best].Weight {
				best = i
			}
		}
		return d.Plans[best].Plan, best, pathNoSupported
	}
	for _, i := range supported {
		rp := d.Logical.PlanByKey(d.Plans[i].Plan.Key())
		if rp == nil {
			continue
		}
		for _, reg := range rp.Regions {
			if reg.Contains(g) {
				return d.Plans[i].Plan, i, pathRegion
			}
		}
	}
	best, bestCost := -1, 0.0
	for _, i := range supported {
		c := d.Ev.PlanCost(d.Plans[i].Plan, pnt)
		if best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return d.Plans[best].Plan, best, pathFallback
}

// checkAgainstReference classifies every snapshot with Classify and with
// one reused Policy, requiring the reference's answer from both, and
// returns how often each reference path decided.
func checkAgainstReference(t *testing.T, name string, d *Deployment, snaps []stats.Snapshot) [4]int {
	t.Helper()
	var paths [4]int
	pol := d.NewPolicy(100)
	for k, snap := range snaps {
		want, wantIdx, path := referenceClassify(d, snap)
		paths[path]++
		got, idx := d.Classify(snap)
		if idx != wantIdx || !got.Equal(want) {
			t.Fatalf("%s snapshot %d: Classify = (%v, %d), reference (%v, %d)", name, k, got, idx, want, wantIdx)
		}
		if p := pol.PlanFor(0, snap); !p.Equal(want) {
			t.Fatalf("%s snapshot %d: PlanFor = %v, reference %v", name, k, p, want)
		}
	}
	return paths
}

// TestClassifyMatchesReference pins the allocation-free classifier to the
// key-lookup one it replaced: identical (plan, index) at every grid point
// and on random and out-of-range snapshots, across several deployments and
// the degenerate no-plan and nothing-supported branches.
func TestClassifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var total [4]int
	for _, c := range classifyCases(t) {
		d := c.dep
		snaps := gridSnapshots(d)
		snaps = append(snaps, randomSnapshots(d, rng, 500)...)
		snaps = append(snaps, stats.Snapshot{})
		for _, v := range []float64{5.0, 1e-9, 1e9} {
			snap := gridSnapshot(d, d.Space.Center())
			for i := range snap.Sels {
				snap.Sels[i] = v
			}
			for s := range snap.Rates {
				snap.Rates[s] = v
			}
			snaps = append(snaps, snap)
		}
		paths := checkAgainstReference(t, c.name, d, snaps)
		for i := range total {
			total[i] += paths[i]
		}

		noPlans := *d
		noPlans.Plans = nil
		if p := checkAgainstReference(t, c.name+"/no-plans", &noPlans, snaps[:20]); p[pathNoPlans] != 20 {
			t.Fatalf("%s/no-plans: paths %v", c.name, p)
		}
		noSupport := *d
		phys := *d.Physical
		phys.Supported = nil
		noSupport.Physical = &phys
		if p := checkAgainstReference(t, c.name+"/no-supported", &noSupport, snaps[:20]); p[pathNoSupported] != 20 {
			t.Fatalf("%s/no-supported: paths %v", c.name, p)
		}
	}
	if total[pathRegion] == 0 || total[pathFallback] == 0 {
		t.Fatalf("snapshots must reach both the region and the cost-fallback path: %v", total)
	}
}

// BenchmarkClassify measures per-batch classification on the open-loop
// benchmark's deployment: the concurrent-safe Deployment.Classify and the
// single-caller Policy.PlanFor, cycling over every grid point.
func BenchmarkClassify(b *testing.B) {
	d := classifyCases(b)[0].dep
	snaps := gridSnapshots(d)
	b.Run("Deployment.Classify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Classify(snaps[i%len(snaps)])
		}
	})
	b.Run("Policy.PlanFor", func(b *testing.B) {
		pol := d.NewPolicy(100)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pol.PlanFor(0, snaps[i%len(snaps)])
		}
	})
}

// TestOptimizeDeterministic pins that a deployment depends only on its
// inputs: repeated Optimize calls on one configuration return the plans
// in the same order (so the same indices) and the same supported set.
func TestOptimizeDeterministic(t *testing.T) {
	q := query.NewNWayJoin("B3", 3, 2)
	dims := []paramspace.Dim{paramspace.SelDim(0, q.Ops[0].Sel, 9), paramspace.SelDim(2, q.Ops[2].Sel, 9)}
	var first *Deployment
	for run := 0; run < 20; run++ {
		d, err := Optimize(q, dims, cluster.NewHomogeneous(2, 100), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = d
			if len(d.Logical.Extras) < 2 {
				t.Fatalf("fixture needs ≥2 extras to expose ordering, has %d", len(d.Logical.Extras))
			}
			continue
		}
		if len(d.Plans) != len(first.Plans) {
			t.Fatalf("run %d: %d plans, first run %d", run, len(d.Plans), len(first.Plans))
		}
		for i := range d.Plans {
			if !d.Plans[i].Plan.Equal(first.Plans[i].Plan) {
				t.Fatalf("run %d: plan %d is %v, first run %v", run, i, d.Plans[i].Plan, first.Plans[i].Plan)
			}
		}
		if fmt.Sprint(d.Physical.Supported) != fmt.Sprint(first.Physical.Supported) {
			t.Fatalf("run %d: supported %v, first run %v", run, d.Physical.Supported, first.Physical.Supported)
		}
	}
}
