package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"nucanet/internal/sim"
)

func reqKey(r Req) string {
	return fmt.Sprintf("%s/%s/%d/%d", r.Run.Design, r.Run.Benchmark, r.Run.Accesses, *r.Run.Seed)
}

func multiset(st Stream) []string {
	var keys []string
	for _, r := range st.Reqs {
		keys = append(keys, reqKey(r))
	}
	sort.Strings(keys)
	return keys
}

// outcomes replays the requests in the given order against a result
// cache primed with the hot set, as the server sees them.
func outcomes(st Stream, order []int) (hits, misses int) {
	cached := map[string]bool{}
	for _, h := range st.Hot {
		cached[reqKey(Req{Run: h})] = true
	}
	for _, i := range order {
		k := reqKey(st.Reqs[i])
		if cached[k] {
			hits++
		} else {
			misses++
			cached[k] = true
		}
	}
	return hits, misses
}

func TestStreamDeterministic(t *testing.T) {
	a, b := NewStream(7, 3000), NewStream(7, 3000)
	if !reflect.DeepEqual(multiset(a), multiset(b)) {
		t.Fatal("same seed gave different request multisets")
	}
	if reflect.DeepEqual(multiset(a), multiset(NewStream(8, 3000))) {
		t.Fatal("different seeds gave the same multiset")
	}
}

func TestStreamOutcomesIndependentOfInterleaving(t *testing.T) {
	for _, seed := range []uint64{1, 2, 99} {
		st := NewStream(seed, 3000)
		want := Misses(3000)
		rng := sim.NewRNG(seed)
		for trial := 0; trial < 5; trial++ {
			order := make([]int, len(st.Reqs))
			for i := range order {
				order[i] = i
			}
			if trial > 0 {
				for i := len(order) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					order[i], order[j] = order[j], order[i]
				}
			}
			hits, misses := outcomes(st, order)
			if misses != want || hits != 3000-want {
				t.Fatalf("seed %d trial %d: %d hits / %d misses, want %d / %d",
					seed, trial, hits, misses, 3000-want, want)
			}
		}
		fresh := 0
		for _, r := range st.Reqs {
			if r.Hot < 0 {
				fresh++
			}
		}
		if fresh != want {
			t.Fatalf("seed %d: %d fresh requests, want %d", seed, fresh, want)
		}
	}
}
