//go:build !race

// Allocation counts are not meaningful under -race, where sync.Pool drops
// items at random.

package engine

import "testing"

// TestPartialsPoolRoundTripAllocs pins the allocation-free recycle of
// partials slices: a get/put round trip through the pool moves the slice
// header through a reused holder instead of boxing a fresh one per put.
func TestPartialsPoolRoundTripAllocs(t *testing.T) {
	putPartials(getPartials()) // warm both pools
	if n := testing.AllocsPerRun(100, func() { putPartials(getPartials()) }); n != 0 {
		t.Fatalf("partials get/put round trip allocates %v times, want 0", n)
	}
}
