package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"nucanet/internal/cache"
)

func engineJobs(accesses int) []Options {
	var opts []Options
	for _, bench := range []string{"gcc", "art", "mcf"} {
		opts = append(opts, Options{
			DesignID: "A", Policy: cache.FastLRU, Mode: cache.Multicast,
			Benchmark: bench, Accesses: accesses, Seed: 11,
		})
	}
	return opts
}

func TestEngineRunAllMatchesDirectRuns(t *testing.T) {
	opts := engineJobs(200)
	for _, workers := range []int{1, 4} {
		start := time.Now()
		got, rep, err := NewEngine(workers).RunAll(opts)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs != len(opts) || rep.Workers != workers || len(rep.PerRun) != len(opts) {
			t.Fatalf("workers=%d: report shape wrong: %+v", workers, rep)
		}
		var runs time.Duration
		for i, d := range rep.PerRun {
			if d <= 0 {
				t.Errorf("workers=%d: run %d has no duration", workers, i)
			}
			if d > rep.Wall {
				t.Errorf("workers=%d: run %d took %v, longer than the sweep's wall %v", workers, i, d, rep.Wall)
			}
			runs += d
		}
		// Work is the batch's preparation plus every run.
		if rep.Work <= runs || rep.Work > runs+rep.Wall {
			t.Errorf("workers=%d: Work %v is not preparation plus the summed PerRun %v", workers, rep.Work, runs)
		}
		// Wall spans the whole call, preparation included: nothing but
		// bookkeeping runs outside it.
		if rep.Wall > elapsed || rep.Wall < elapsed*9/10 {
			t.Errorf("workers=%d: Wall %v does not span the call's %v", workers, rep.Wall, elapsed)
		}
		if workers == 1 && rep.Wall < rep.Work {
			t.Errorf("sequential sweep: Wall %v below summed work %v", rep.Wall, rep.Work)
		}
		for i, opt := range opts {
			want, err := Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("workers=%d job %d (%s): engine result differs from direct Run", workers, i, opt.Benchmark)
			}
		}
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	opts := engineJobs(100)
	opts[1].Benchmark = "no-such-benchmark"
	for _, workers := range []int{1, 4} {
		_, _, err := NewEngine(workers).RunAll(opts)
		if err == nil || !strings.Contains(err.Error(), "no-such-benchmark") {
			t.Errorf("workers=%d: err = %v, want the bad-benchmark error", workers, err)
		}
	}
}

func TestEngineWorkerDefaults(t *testing.T) {
	if w := NewEngine(0).Workers(); w < 1 {
		t.Errorf("default workers = %d, want >= 1", w)
	}
	if w := NewEngine(3).Workers(); w != 3 {
		t.Errorf("workers = %d, want 3", w)
	}
}

func TestSweepReportSpeedup(t *testing.T) {
	r := SweepReport{Wall: 2e9, Work: 6e9}
	if s := r.Speedup(); s < 2.9 || s > 3.1 {
		t.Errorf("speedup = %v, want 3", s)
	}
	if s := (SweepReport{}).Speedup(); s != 1 {
		t.Errorf("zero-wall speedup = %v, want 1", s)
	}
}

// TestAggregateMergeOrderInvariance pins the property that lets the
// engine combine run statistics in submission order while workers finish
// in any order: the merged aggregate is independent of merge order.
func TestAggregateMergeOrderInvariance(t *testing.T) {
	rs, _, err := NewEngine(0).RunAll(engineJobs(200))
	if err != nil {
		t.Fatal(err)
	}
	fwd := AggregateOf(rs)
	rev := Aggregate{}
	for i := len(rs) - 1; i >= 0; i-- {
		rev.Add(rs[i])
	}
	fa := fmt.Sprintf("%v %v %+v ways=%v", fwd.Runs, fwd.Latency.String(), fwd.Network, fwd.Latency.HitWays())
	fb := fmt.Sprintf("%v %v %+v ways=%v", rev.Runs, rev.Latency.String(), rev.Network, rev.Latency.HitWays())
	if fa != fb {
		t.Errorf("aggregate depends on merge order:\nfwd: %s\nrev: %s", fa, fb)
	}
	if fwd.Runs != 3 || fwd.Latency.Count == 0 || fwd.Network.FlitsInjected == 0 {
		t.Errorf("aggregate empty: %+v", fwd)
	}
	// The merged accumulator must equal the sum of its parts.
	var wantCount, wantSum int64
	for _, r := range rs {
		wantCount += r.Latency.Count
		wantSum += r.Latency.Sum
	}
	if fwd.Latency.Count != wantCount || fwd.Latency.Sum != wantSum {
		t.Errorf("merged latency %d/%d, want %d/%d",
			fwd.Latency.Count, fwd.Latency.Sum, wantCount, wantSum)
	}
}
