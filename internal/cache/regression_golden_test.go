// Golden regression proof for the protocol-engine refactor: every
// catalogue design (Table 3's A-F plus the extra registered families R,
// G, and H2) under every (policy, mode) scheme must produce byte-identical
// IPC, cycle counts, and latency statistics across refactors of the
// protocol layer. The goldens in testdata/regression_goldens.json were
// captured from the pre-engine (hard-coded switch) protocol code;
// regenerate deliberately with
//
//	go test ./internal/cache/ -run TestCatalogueGoldens -update-goldens
//
// only when a change is *intended* to alter timing or placement.
//
// The file lives in package cache_test (not cache) so it can drive the
// full core.Run pipeline — CPU model, network, memory — whose IPC and
// cycle outputs are the numbers the paper's figures are built from.
package cache_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/core"
)

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/regression_goldens.json from the current simulator")

// goldenAccesses keeps the 54-run sweep quick while still exercising
// warm-up, replacement chains, misses, and writebacks on every design.
const goldenAccesses = 1200

// goldenRow is one (design, policy, mode) measurement. Floating-point
// fields are serialized with strconv.FormatFloat(v, 'g', -1, 64), which
// round-trips exactly, so equality below is bit-equality.
type goldenRow struct {
	Design string `json:"design"`
	Policy string `json:"policy"`
	Mode   string `json:"mode"`

	IPC        string `json:"ipc"`
	Cycles     int64  `json:"cycles"`
	AvgLatency string `json:"avg_latency"`
	AvgHit     string `json:"avg_hit"`
	AvgMiss    string `json:"avg_miss"`
	AvgOcc     string `json:"avg_occupancy"`
	HitRate    string `json:"hit_rate"`
	P50        int64  `json:"p50"`
	P99        int64  `json:"p99"`
	MaxLat     int64  `json:"max_latency"`

	BankAccesses uint64 `json:"bank_accesses"`
	Flits        uint64 `json:"flits_injected"`
	Packets      uint64 `json:"packets_injected"`
	MemReads     uint64 `json:"mem_reads"`
	MemWB        uint64 `json:"mem_writebacks"`
}

func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func goldenKey(design string, p cache.Policy, m cache.Mode) string {
	return fmt.Sprintf("%s/%v/%v", design, p, m)
}

func rowOf(design string, p cache.Policy, m cache.Mode, r core.Result) goldenRow {
	return goldenRow{
		Design: design, Policy: p.String(), Mode: m.String(),
		IPC:        ff(r.IPC),
		Cycles:     r.Cycles,
		AvgLatency: ff(r.AvgLatency), AvgHit: ff(r.AvgHit), AvgMiss: ff(r.AvgMiss),
		AvgOcc: ff(r.AvgOccupancy), HitRate: ff(r.HitRate),
		P50: r.Latency.Percentile(0.50), P99: r.Latency.Percentile(0.99),
		MaxLat:       r.Latency.MaxLat,
		BankAccesses: r.BankAccesses,
		Flits:        r.Network.FlitsInjected,
		Packets:      r.Network.PacketsInjected,
		MemReads:     r.Memory.Reads,
		MemWB:        r.Memory.WriteBacks,
	}
}

// catalogueOpts enumerates the full regression matrix: 9 designs x
// {Promotion, LRU, FastLRU} x {Unicast, Multicast} = 54 runs.
func catalogueOpts() []core.Options {
	var opts []core.Options
	for _, d := range append(config.Designs(), config.ExtraDesigns()...) {
		for _, p := range []cache.Policy{cache.Promotion, cache.LRU, cache.FastLRU} {
			for _, m := range []cache.Mode{cache.Unicast, cache.Multicast} {
				opts = append(opts, core.Options{
					DesignID: d.ID, Policy: p, Mode: m,
					Benchmark: "gcc", Accesses: goldenAccesses, Seed: 42,
				})
			}
		}
	}
	return opts
}

func TestCatalogueGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("54-run catalogue sweep; skipped in -short mode")
	}
	opts := catalogueOpts()
	results, _, err := core.NewEngine(runtime.NumCPU()).RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]goldenRow, len(results))
	for i, r := range results {
		o := opts[i]
		got[goldenKey(o.DesignID, o.Policy, o.Mode)] = rowOf(o.DesignID, o.Policy, o.Mode, r)
	}

	path := filepath.Join("testdata", "regression_goldens.json")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden rows to %s", len(got), path)
		return
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read goldens (regenerate with -update-goldens): %v", err)
	}
	var want map[string]goldenRow
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d rows, sweep produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from sweep", key)
			continue
		}
		if g != w {
			t.Errorf("%s: stats drifted from golden\n got %+v\nwant %+v", key, g, w)
		}
	}
}
