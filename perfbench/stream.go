package main

import (
	"nucanet/internal/serve"
	"nucanet/internal/sim"
)

// The serve-mixed request stream. Its hit/miss split is fixed by
// construction, whatever order the clients happen to send it in: hot
// requests draw from a set primed before timing starts, so each is a
// hit; fresh requests carry configurations that appear nowhere else, so
// each is a miss and none can coalesce with another.

const (
	hotKeys      = 32 // hot-set size: 8 seeds x 4 benchmarks
	streamAccess = 1000
	missEvery    = 20 // one request in 20 (5%) is fresh
)

var streamBenchmarks = []string{"gcc", "mcf", "art", "apsi"}

// Stream is one workload seed's traffic.
type Stream struct {
	Hot  []serve.RunRequest // primed during set-up, in priming order
	Reqs []Req              // the timed requests, in dispatch order
}

// Req is one timed request and the outcome its construction fixes.
type Req struct {
	Run serve.RunRequest
	Hot int // index into Stream.Hot, or -1 for a fresh configuration
}

// Misses is the number of fresh requests in a stream of n.
func Misses(n int) int { return n / missEvery }

// NewStream builds n requests from seed: exactly Misses(n) fresh
// configurations at seeded positions, the rest drawn uniformly from the
// hot set.
func NewStream(seed uint64, n int) Stream {
	rng := sim.NewRNG(seed)
	used := map[uint64]bool{}
	freshSeed := func() uint64 {
		for {
			if s := rng.Uint64(); !used[s] {
				used[s] = true
				return s
			}
		}
	}
	req := func(bench string, s uint64) serve.RunRequest {
		return serve.RunRequest{Design: "F", Benchmark: bench, Accesses: streamAccess, Seed: &s}
	}
	var st Stream
	for i := 0; i < hotKeys; i++ {
		st.Hot = append(st.Hot, req(streamBenchmarks[i%len(streamBenchmarks)], freshSeed()))
	}
	fresh := make([]bool, n)
	for i := 0; i < Misses(n); i++ {
		fresh[i] = true
	}
	for i := n - 1; i > 0; i-- { // Fisher-Yates: seeded miss positions
		j := rng.Intn(i + 1)
		fresh[i], fresh[j] = fresh[j], fresh[i]
	}
	st.Reqs = make([]Req, n)
	misses := 0
	for i := range st.Reqs {
		if fresh[i] {
			// Fresh requests cycle through the benchmarks, so every seed
			// simulates the same benchmark mix.
			st.Reqs[i] = Req{Run: req(streamBenchmarks[misses%len(streamBenchmarks)], freshSeed()), Hot: -1}
			misses++
		} else {
			h := rng.Intn(hotKeys)
			st.Reqs[i] = Req{Run: st.Hot[h], Hot: h}
		}
	}
	return st
}
