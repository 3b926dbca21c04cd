package main

import "sort"

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// wsample is a value observed n times (results of one emission that share
// a timestamp share a latency).
type wsample struct {
	v float64
	n int64
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the
// weighted samples, and whether at least minBeyond samples lie strictly
// above it. It sorts s in place.
func percentile(s []wsample, q float64) (float64, bool) {
	var total int64
	for _, x := range s {
		total += x.n
	}
	if total == 0 {
		return 0, false
	}
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	rank := int64(q*float64(total) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, x := range s {
		cum += x.n
		if cum < rank {
			continue
		}
		// Samples tied with the percentile are not beyond it.
		for j := i + 1; j < len(s) && s[j].v == x.v; j++ {
			cum += s[j].n
		}
		return x.v, total-cum >= minBeyond
	}
	return s[len(s)-1].v, false
}

// median returns the median of xs (0 for none), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
