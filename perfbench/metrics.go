package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// endToEnd lists the metrics every untraced run prints, on every
// workload (README.md defines each per workload).
var endToEnd = []string{
	"accesses_per_s", "runs_per_s", "run_p50_ms", "op_p50_ms",
	"alloc_mb", "setup_s",
}

// selfShareLayers are the layers the CPU-profile reducer reports a
// <layer>.self_share for: every internal package the workloads execute,
// plus runtime, sort, transport and other (see LayerOf).
var selfShareLayers = []string{
	"area", "bank", "cache", "cmp", "config", "core", "cpu", "energy",
	"fleet", "flit", "mem", "network", "place", "router", "routing",
	"serve", "sim", "slab", "stats", "telemetry", "topology", "trace",
	"runtime", "sort", "transport", "other",
}

// layerCounters are the traced run's per-layer metrics besides the self
// shares, with their units. A workload that bypasses a layer reports 0
// for it.
var layerCounters = []struct{ name, unit string }{
	{"core.prepare_ms", "ms"}, {"core.build_ms", "ms"}, {"core.simulate_ms", "ms"}, {"core.setup_share", "share"},
	{"sim.ns_per_cycle", "ns"}, {"sim.cycles", "count"},
	{"network.ns_per_flit_hop", "ns"}, {"network.flit_hops_per_access", "count"}, {"router.replicas_per_access", "count"},
	{"cache.allocs_per_access", "count"}, {"cache.hit_rate", "share"}, {"mem.reads_per_access", "count"}, {"cpu.ipc", "ratio"},
	{"cmp.remote_share", "share"}, {"cmp.cross_evictions", "count"},
	{"place.accept_ratio", "share"}, {"place.sims_per_search", "count"}, {"place.eval_share", "share"}, {"fleet.speedup", "ratio"},
	{"serve.run_ms", "ms"}, {"serve.miss_overhead_ms", "ms"}, {"serve.handler_hit_us", "us"}, {"serve.transport_share", "share"},
	{"serve.hit_ratio", "share"}, {"serve.coalesced", "count"}, {"serve.rejected", "count"},
	{"serve.hit_p90_ms", "ms"}, {"serve.miss_p90_ms", "ms"}, {"serve.req_per_s", "1/s"},
	{"runtime.gc_cpu_share", "share"}, {"runtime.peak_rss_mb", "MB"}, {"tracing.overhead_ratio", "ratio"},
}

func perLayer() []string {
	var out []string
	for _, c := range layerCounters {
		out = append(out, c.name)
	}
	for _, l := range selfShareLayers {
		out = append(out, l+".self_share")
	}
	return out
}

// Counters is a runtime/metrics snapshot of the process.
type Counters struct {
	AllocBytes, AllocObjects uint64
	GCCPU, TotalCPU          float64
}

var counterNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readCounters() Counters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return Counters{
		AllocBytes:   s[0].Value.Uint64(),
		AllocObjects: s[1].Value.Uint64(),
		GCCPU:        s[2].Value.Float64(),
		TotalCPU:     s[3].Value.Float64(),
	}
}

// Sub returns the change from earlier to c.
func (c Counters) Sub(earlier Counters) Counters {
	return Counters{
		AllocBytes:   c.AllocBytes - earlier.AllocBytes,
		AllocObjects: c.AllocObjects - earlier.AllocObjects,
		GCCPU:        c.GCCPU - earlier.GCCPU,
		TotalCPU:     c.TotalCPU - earlier.TotalCPU,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median is the middle of a small set of set-up times; unlike
// Timing.Percentile it is not subject to the tail-sample rule, because
// setup_s is one value per repetition, not a latency distribution.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timeSetup runs set-up setupReps times and returns the median seconds;
// the last repetition's state is the one the caller keeps.
func timeSetup(setup func(last bool) error) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := setup(i == setupReps-1); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// addCommon sets the metrics every workload computes the same way from
// its timed phase.
func addCommon(rep *Report, ops int, delta Counters, setupS float64) {
	rep.set("alloc_mb", float64(delta.AllocBytes)/1e6/float64(ops), "MB")
	rep.set("setup_s", setupS, "s")
}

// addRuntime sets the runtime layer's counters over the traced phase.
func addRuntime(rep *Report, delta Counters) {
	rep.layer("runtime.gc_cpu_share", delta.GCCPU/delta.TotalCPU)
	rep.layer("runtime.peak_rss_mb", peakRSSMB())
}

// addShares sets <layer>.self_share from leaf samples per layer; layers
// the reducer reports but selfShareLayers does not name fold into other.
func addShares(rep *Report, samples map[string]int64) {
	var total int64
	for _, n := range samples {
		total += n
	}
	known := map[string]bool{}
	for _, l := range selfShareLayers {
		known[l] = true
	}
	shares := map[string]float64{}
	for l, n := range samples {
		if !known[l] {
			l = "other"
		}
		if total > 0 {
			shares[l] += float64(n) / float64(total)
		}
	}
	for _, l := range selfShareLayers {
		rep.set(l+".self_share", shares[l], "share")
	}
}

// zeroUnset fills every per-layer counter the workload did not produce
// with 0: the workload bypasses that layer.
func zeroUnset(rep *Report) {
	for _, c := range layerCounters {
		if _, ok := rep.Metrics[c.name]; !ok {
			rep.set(c.name, 0, c.unit)
		}
	}
}

// layer sets a per-layer counter with its declared unit.
func (r *Report) layer(name string, v float64) {
	for _, c := range layerCounters {
		if c.name == name {
			r.set(name, v, c.unit)
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}
