package core

import (
	"reflect"
	"strings"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/telemetry"
)

// bitIdentityOpts builds the bit-identity table: designs x policies x
// router engines, skipping pairs the static gates reject (that rejection
// is pinned elsewhere; here only successful runs are compared).
func bitIdentityOpts(t *testing.T, accesses int) []Options {
	t.Helper()
	var opts []Options
	for _, designID := range []string{"A", "F", "R"} {
		for _, policy := range []cache.Policy{cache.FastLRU, cache.Promotion, cache.Static} {
			for _, engine := range []string{"", "bufferless", "ring-lite"} {
				opt := DefaultOptions()
				opt.DesignID = designID
				opt.Policy = policy
				opt.Router = engine
				opt.Accesses = accesses
				opt.Benchmark = "gcc"
				if _, err := Prepare(opt, nil); err != nil {
					continue // engine does not support this topology
				}
				opts = append(opts, opt)
			}
		}
	}
	if len(opts) < 9 {
		t.Fatalf("only %d valid (design, policy, engine) combos; expected at least 9", len(opts))
	}
	return opts
}

// testAccesses is the per-run access count of the batch tests.
func testAccesses() int {
	if testing.Short() {
		return 150
	}
	return 300
}

// assertEngineMatchesRun runs opts through Engine.RunAll at 1 and 4
// workers and requires every Result — telemetry included — to be
// reflect.DeepEqual to an independent Run of the same Options, in
// submission order.
func assertEngineMatchesRun(t *testing.T, opts []Options) {
	t.Helper()
	want := make([]Result, len(opts))
	for i, opt := range opts {
		r, err := Run(opt)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 4} {
		got, rep, err := NewEngine(workers).RunAll(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Runs != len(opts) {
			t.Fatalf("workers=%d: report runs = %d, want %d", workers, rep.Runs, len(opts))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d run %d (%s/%v/%q, probes %+v): engine result differs from Run",
					workers, i, opts[i].DesignID, opts[i].Policy, opts[i].Router, opts[i].Telemetry)
			}
		}
		for i, r := range got {
			if (r.Telemetry != nil) != opts[i].Telemetry.Enabled() {
				t.Errorf("workers=%d run %d: telemetry %v with probes %+v", workers, i, r.Telemetry != nil, opts[i].Telemetry)
			}
		}
	}
}

// TestEngineBitIdentity is the engine's batch contract: shared
// preparation and recycled per-worker arenas return results
// bit-identical to independent Run calls across designs x policies x
// router engines, at any worker count, in submission order. With more
// runs than workers every arena is reset and reused, so a result that
// kept a reference into arena memory would be overwritten by a later
// run and show up here.
func TestEngineBitIdentity(t *testing.T) {
	assertEngineMatchesRun(t, bitIdentityOpts(t, testAccesses()))
}

// TestEngineTelemetryBitIdentity pins that probe-carrying runs (flit
// trace, heatmaps and time series on) go through the engine's shared
// preparation and recycled arenas too, with telemetry identical to an
// independent Run. They are mixed with probe-free runs so the arenas are
// reused across the two kinds.
func TestEngineTelemetryBitIdentity(t *testing.T) {
	probes := telemetry.Config{Trace: true, Heatmap: true, SampleEvery: 50}
	var opts []Options
	for _, designID := range []string{"A", "F"} {
		for _, cfg := range []telemetry.Config{probes, {}} {
			opt := DefaultOptions()
			opt.DesignID = designID
			opt.Accesses = testAccesses()
			opt.Telemetry = cfg
			opts = append(opts, opt)
		}
	}
	opts = append(opts, opts[0])
	assertEngineMatchesRun(t, opts)
}

// TestPrepCacheSharesArtifacts pins that sharing actually happens: runs
// of one design and benchmark reuse one topology, routing table and
// access stream.
func TestPrepCacheSharesArtifacts(t *testing.T) {
	pc := NewPrepCache()
	opt := DefaultOptions()
	opt.DesignID = "F"
	opt.Accesses = 100
	a1, err := Prepare(opt, pc)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Prepare(opt, pc)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Topo != a2.Topo {
		t.Error("same design prepared twice did not share the topology")
	}
	if a1.Table != a2.Table {
		t.Error("same design prepared twice did not share the routing table")
	}
	if &a1.Accs[0] != &a2.Accs[0] {
		t.Error("same trace key prepared twice did not share the access stream")
	}
	if a1.WarmImg == nil || a1.WarmImg != a2.WarmImg {
		t.Error("same design and trace prepared twice did not share the warm image")
	}
	// A different design with the same geometry shares the trace but not
	// the topology.
	opt2 := opt
	opt2.DesignID = "D"
	a3, err := Prepare(opt2, pc)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Topo == a1.Topo {
		t.Error("distinct designs share a topology")
	}
	if &a3.Accs[0] != &a1.Accs[0] {
		t.Error("same-geometry designs did not share the access stream")
	}
}

// TestEngineErrorLowestIndex pins the sequential-loop error semantics
// at every worker count: of several failing runs, the lowest-index one's
// error is returned.
func TestEngineErrorLowestIndex(t *testing.T) {
	ok := DefaultOptions()
	ok.Accesses = 100
	bad1 := ok
	bad1.Benchmark = "no-such-benchmark"
	bad2 := ok
	bad2.DesignID = "no-such-design"
	for _, workers := range []int{1, 4} {
		_, _, err := NewEngine(workers).RunAll([]Options{ok, bad1, ok, bad2, ok})
		if err == nil || !strings.Contains(err.Error(), "no-such-benchmark") {
			t.Errorf("workers=%d: err = %v, want run 1's bad-benchmark error", workers, err)
		}
		_, _, err = NewEngine(workers).RunAll([]Options{ok, bad2, bad1})
		if err == nil || !strings.Contains(err.Error(), "no-such-design") {
			t.Errorf("workers=%d: err = %v, want run 1's bad-design error", workers, err)
		}
	}
}

// TestEngineEmpty pins the trivial batch.
func TestEngineEmpty(t *testing.T) {
	got, rep, err := NewEngine(2).RunAll(nil)
	if err != nil || len(got) != 0 || rep.Runs != 0 {
		t.Fatalf("empty batch: got %v, %+v, %v", got, rep, err)
	}
}
