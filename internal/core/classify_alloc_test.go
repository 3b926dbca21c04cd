//go:build !race

package core

import (
	"testing"

	"rld/internal/physical"
)

// TestPlanForAllocFree pins Policy.PlanFor at zero allocations per batch at
// every grid point, on the region-hit path and on the cost-fallback path
// (a copy of the deployment whose plans carry no regions). The race
// detector instruments allocations, hence the build tag.
func TestPlanForAllocFree(t *testing.T) {
	for _, c := range classifyCases(t)[:2] {
		hits := 0
		for _, d := range []*Deployment{c.dep, withoutRegions(c.dep)} {
			pol := d.NewPolicy(100)
			for k, snap := range gridSnapshots(d) {
				if _, _, path := referenceClassify(d, snap); path == pathRegion && d == c.dep {
					hits++
				}
				if n := testing.AllocsPerRun(10, func() { pol.PlanFor(0, snap) }); n != 0 {
					t.Fatalf("%s grid snapshot %d (regions %v): PlanFor made %v allocs, want 0", c.name, k, d == c.dep, n)
				}
			}
		}
		if hits == 0 {
			t.Fatalf("%s: no grid point took the region path", c.name)
		}
	}
}

// withoutRegions returns a copy of d whose plans carry no regions, so every
// classification takes the cost fallback.
func withoutRegions(d *Deployment) *Deployment {
	dd := *d
	dd.Plans = make([]physical.LogicalPlan, len(d.Plans))
	for i, lp := range d.Plans {
		lp.Regions = nil
		dd.Plans[i] = lp
	}
	return &dd
}
