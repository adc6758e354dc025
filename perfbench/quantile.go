package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a percentile read off fewer is mostly noise.
const minBeyond = 10

// Timing is the samples of one kind of operation, in milliseconds. Every
// percentile the benchmark reports comes from one Timing, so no
// percentile ever mixes operation kinds.
type Timing struct {
	Name    string
	Samples []float64
}

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// the samples: the k-th smallest, k = ceil(p/100 * n). It refuses when
// fewer than minBeyond samples rank above it.
func (t Timing) Percentile(p float64) (float64, error) {
	n := len(t.Samples)
	k := rank(p, n)
	if beyond := n - k; beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%g of %d samples has %d beyond it, need %d", t.Name, p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), t.Samples...)
	sort.Float64s(s)
	return s[k-1], nil
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples, computed in integers so p=50, n=20 gives exactly 10.
func rank(p float64, n int) int {
	k := int(p * float64(n) / 100)
	if float64(k)*100 < p*float64(n) {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Describe renders p with its sample count, or the refusal.
func (t Timing) Describe(p float64) string {
	v, err := t.Percentile(p)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%s p%g = %.4f ms (n=%d)", t.Name, p, v, len(t.Samples))
}
