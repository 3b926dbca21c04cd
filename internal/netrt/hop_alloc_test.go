//go:build !race

// Allocation counts are not meaningful under -race, where sync.Pool drops
// items at random.

package netrt

import (
	"testing"

	"rld/internal/physical"
	"rld/internal/stream"
)

// TestHopAllocsFlat pins the allocation-free hop: with request frames built
// in reused scratch on the leader and replies and decodes reusing buffers on
// the worker, the allocations of one stage hop and one insert hop — both
// ends counted, since both run in this process — do not grow with the
// payload. (Only the fixed per-call cost remains, such as net.Pipe's
// deadline timers.)
func TestHopAllocsFlat(t *testing.T) {
	r := pipeRig(t)
	sch := r.c.core.Schema()
	stageAllocs := func(n int) float64 {
		ps := selectPartials(sch, n)
		defer r.c.core.ReleasePartials(ps)
		return testing.AllocsPerRun(50, func() { r.stageHop(t, ps) })
	}
	small, large := stageAllocs(8), stageAllocs(512)
	t.Logf("stage hop allocs: %v for 8 partials, %v for 512", small, large)
	if large > small+1 {
		t.Errorf("stage hop allocs grow with payload: %v for 8 partials, %v for 512", small, large)
	}

	assign := physical.Assignment{0, 0}
	var seq uint64
	ts := 0.0
	insertAllocs := func(n int) float64 {
		b := testBatch("S2", &seq, ts, n)
		return testing.AllocsPerRun(50, func() {
			// Each insert lands a window length past the last, so the
			// window holds one batch and its storage stops growing.
			ts += 2 * r.c.q.WindowSeconds
			for i := range b.Ts {
				b.Ts[i], b.Arr[i] = stream.Time(ts), stream.Time(ts)
			}
			if err := r.c.InsertWindows(b, assign); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large = insertAllocs(8), insertAllocs(512)
	t.Logf("insert hop allocs: %v for 8 rows, %v for 512", small, large)
	if large > small+1 {
		t.Errorf("insert hop allocs grow with payload: %v for 8 rows, %v for 512", small, large)
	}
}
