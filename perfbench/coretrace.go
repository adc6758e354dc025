package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"nucanet/internal/core"
)

// CoreLayers accumulates the per-layer view of traced simulations: each
// traced run makes the same three calls core.Run makes, with a span
// around each, and folds the Result's counters in. Safe for concurrent
// use (serve-mixed's workers trace misses in parallel).
type CoreLayers struct {
	mu sync.Mutex
	// CountAllocs, when set, attributes the process's mallocs during
	// RunToCompletion to the cache layer. Only sequential workloads set
	// it: under concurrency the process-wide counter mixes other work in.
	CountAllocs bool

	prep, build, simulate, total Timing
	simNS, cycles, hops, reps    float64
	accesses, mallocs, memReads  float64
	hitRate, ipc, remote, cross  float64
	runs                         int
}

func newCoreLayers(countAllocs bool) *CoreLayers {
	return &CoreLayers{
		CountAllocs: countAllocs,
		prep:        Timing{Name: "core.prepare"},
		build:       Timing{Name: "core.build"},
		simulate:    Timing{Name: "core.simulate"},
		total:       Timing{Name: "core.run"},
	}
}

// Run executes opt as core.Run does — Prepare, NewInstance,
// RunToCompletion — recording a span around each under parent.
func (c *CoreLayers) Run(tr *Tracer, trace, parent uint64, opt core.Options) (core.Result, error) {
	t0 := time.Now()
	id := tr.ID()
	art, err := core.Prepare(opt, nil)
	dPrep := tr.Record(tr.ID(), id, trace, "core.Prepare", t0)
	if err != nil {
		return core.Result{}, err
	}
	t1 := time.Now()
	in, err := core.NewInstance(art, nil)
	dBuild := tr.Record(tr.ID(), id, trace, "core.NewInstance", t1)
	if err != nil {
		return core.Result{}, err
	}
	var before Counters
	if c.CountAllocs {
		before = readCounters()
	}
	t2 := time.Now()
	res, err := in.RunToCompletion()
	dSim := tr.Record(tr.ID(), id, trace, "Instance.RunToCompletion", t2)
	var mallocs uint64
	if c.CountAllocs {
		mallocs = readCounters().Sub(before).AllocObjects
	}
	dTotal := tr.Record(id, parent, trace, "core.Run", t0)
	if err != nil {
		return res, err
	}

	acc := float64(opt.Accesses * max(1, opt.Cores))
	remote := 0.0
	for _, cr := range res.Cores {
		remote += cr.RemoteShare / float64(len(res.Cores))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.prep.Samples = append(c.prep.Samples, ms(dPrep))
	c.build.Samples = append(c.build.Samples, ms(dBuild))
	c.simulate.Samples = append(c.simulate.Samples, ms(dSim))
	c.total.Samples = append(c.total.Samples, ms(dTotal))
	c.simNS += float64(dSim.Nanoseconds())
	c.cycles += float64(res.Cycles)
	c.hops += float64(res.Network.Router.FlitsRouted)
	c.reps += float64(res.Network.Router.ReplicasSpawned)
	c.accesses += acc
	c.mallocs += float64(mallocs)
	c.memReads += float64(res.Memory.Reads)
	c.hitRate += res.HitRate
	c.ipc += res.IPC
	c.remote += remote
	if res.Directory != nil {
		c.cross += float64(res.Directory.CrossDrops)
	}
	c.runs++
	return res, nil
}

// Report sets the core, sim, network, router, cache, mem, cpu and cmp
// per-layer metrics.
func (c *CoreLayers) Report(rep *Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runs == 0 {
		return fmt.Errorf("no traced simulations")
	}
	for _, p := range []struct {
		name string
		t    Timing
	}{{"core.prepare_ms", c.prep}, {"core.build_ms", c.build}, {"core.simulate_ms", c.simulate}} {
		v, err := p.t.Percentile(50)
		if err != nil {
			return err
		}
		fmt.Println("  " + p.t.Describe(50))
		rep.layer(p.name, v)
	}
	rep.layer("core.setup_share", (sum(c.prep.Samples)+sum(c.build.Samples))/sum(c.total.Samples))
	n := float64(c.runs)
	rep.layer("sim.ns_per_cycle", c.simNS/c.cycles)
	rep.layer("sim.cycles", c.cycles)
	rep.layer("network.ns_per_flit_hop", c.simNS/c.hops)
	rep.layer("network.flit_hops_per_access", c.hops/c.accesses)
	rep.layer("router.replicas_per_access", c.reps/c.accesses)
	if c.CountAllocs {
		rep.layer("cache.allocs_per_access", c.mallocs/c.accesses)
	}
	rep.layer("cache.hit_rate", c.hitRate/n)
	rep.layer("mem.reads_per_access", c.memReads/c.accesses)
	rep.layer("cpu.ipc", c.ipc/n)
	if c.remote > 0 {
		rep.layer("cmp.remote_share", c.remote/n)
	}
	if c.cross > 0 {
		rep.layer("cmp.cross_evictions", c.cross)
	}
	return nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// ratioMedian is the median of traced[i]/ref[i] over the paired
// operations: the tracing overhead, with each pair running the same
// inputs.
func ratioMedian(traced, ref []float64) float64 {
	var r []float64
	for i := range ref {
		if i < len(traced) && ref[i] > 0 {
			r = append(r, traced[i]/ref[i])
		}
	}
	if len(r) == 0 {
		return math.NaN()
	}
	return median(r)
}
