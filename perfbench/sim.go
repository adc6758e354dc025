package main

import (
	"fmt"
	"math"
	"time"

	"nucanet/internal/cache"
	"nucanet/internal/core"
	"nucanet/internal/sim"
)

// The two simulation workloads: sequential core.Runs of one fixed
// configuration each, with per-run seeds drawn from the workload seed.

// simSpec is one simulation workload.
type simSpec struct {
	name string
	base core.Options
	// perSecond is runs per --seconds: the run count is fixed by the
	// nominal run length, never by a clock, and is never below minOps.
	perSecond float64
	golden    []Digest // pinned digests at defaultSeed, by run index
}

// minOps keeps ten runs above every median the benchmark reports.
const minOps = 2 * minBeyond

// Digest pins one simulation's outcome.
type Digest struct {
	Cycles   int64
	IPCBits  uint64
	FlitHops uint64
}

func (d Digest) String() string {
	return fmt.Sprintf("{%d, %#x, %d}", d.Cycles, d.IPCBits, d.FlitHops)
}

func digestOf(r core.Result) Digest {
	return Digest{r.Cycles, math.Float64bits(r.IPC), r.Network.Router.FlitsRouted}
}

var singleLong = simSpec{
	name: "single-long",
	base: func() core.Options {
		o := core.DefaultOptions() // multicast Fast-LRU, gcc, 10k accesses
		o.DesignID = "F"
		return o
	}(),
	perSecond: 1.5,
	golden:    goldenSingleLong,
}

var cmpH2 = simSpec{
	name: "cmp-h2",
	base: func() core.Options {
		o := core.DefaultOptions()
		o.DesignID = "H2"
		o.Policy = cache.Directory
		o.Cores = 4
		o.Accesses = 3000
		return o
	}(),
	perSecond: 1.2,
	golden:    goldenCMPH2,
}

func runSingleLong(r Run) (*Report, error) { return runSim(r, singleLong) }
func runCMPH2(r Run) (*Report, error)      { return runSim(r, cmpH2) }

// opCount is the fixed operation count for a nominal run length.
func opCount(seconds int, perSecond float64) int {
	return max(minOps, int(math.Round(float64(seconds)*perSecond)))
}

// simInputs derives n run configurations from the workload seed.
func simInputs(base core.Options, seed uint64, n int) []core.Options {
	rng := sim.NewRNG(seed)
	opts := make([]core.Options, n)
	for i := range opts {
		opts[i] = base
		opts[i].Seed = rng.Uint64()
	}
	return opts
}

func runSim(r Run, sp simSpec) (*Report, error) {
	n := opCount(r.Seconds, sp.perSecond)
	var opts []core.Options
	var warm Digest
	setupS, err := timeSetup(func(bool) error {
		opts = simInputs(sp.base, r.Seed, n)
		res, err := core.Run(opts[0])
		if err != nil {
			return fmt.Errorf("warm-up run: %w", err)
		}
		warm = digestOf(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Attempted: n}
	check := func(i int, res core.Result, err error) {
		switch d := digestOf(res); {
		case err != nil:
			rep.fail("%s run %d: %v", sp.name, i, err)
		case i == 0 && d != warm:
			rep.fail("%s run 0 gave %v, its warm-up gave %v", sp.name, d, warm)
		case r.Seed == defaultSeed && i < len(sp.golden) && d != sp.golden[i]:
			rep.fail("%s run %d digest %v, pinned %v", sp.name, i, d, sp.golden[i])
		case r.Seed == defaultSeed && i >= len(sp.golden):
			fmt.Printf("unpinned %s digest %d: %v\n", sp.name, i, d)
		}
	}

	// The untraced timed phase; in a traced run, the first half of it is
	// the reference the tracing overhead is measured against.
	ref := opts
	if r.Trace {
		ref = opts[:(n+1)/2]
	}
	times := make([]float64, len(ref))
	before := readCounters()
	t0 := time.Now()
	for i, o := range ref {
		s := time.Now()
		res, err := core.Run(o)
		times[i] = ms(time.Since(s))
		check(i, res, err)
	}
	wall := time.Since(t0).Seconds()
	delta := readCounters().Sub(before)

	if !r.Trace {
		runT := Timing{Name: sp.name + " core.Run", Samples: times}
		p50, err := runT.Percentile(50)
		if err != nil {
			return nil, err
		}
		fmt.Println("  " + runT.Describe(50))
		acc := float64(n * sp.base.Accesses * max(1, sp.base.Cores))
		rep.set("accesses_per_s", acc/wall, "1/s")
		rep.set("runs_per_s", float64(n)/wall, "1/s")
		rep.set("run_p50_ms", p50, "ms")
		rep.set("op_p50_ms", p50, "ms")
		addCommon(rep, n, delta, setupS)
		return rep, nil
	}

	tr := newTracer()
	layers := newCoreLayers(true)
	traced := make([]float64, n)
	if err := tr.StartProfile(); err != nil {
		return nil, err
	}
	before = readCounters()
	for i, o := range opts {
		trace := tr.ID()
		s := time.Now()
		res, err := layers.Run(tr, trace, 0, o)
		traced[i] = ms(time.Since(s))
		check(i, res, err)
	}
	delta = readCounters().Sub(before)
	samples, err := tr.StopProfile()
	if err != nil {
		return nil, err
	}
	rep.Attempted += len(ref)
	if err := layers.Report(rep); err != nil {
		return nil, err
	}
	addRuntime(rep, delta)
	rep.layer("tracing.overhead_ratio", ratioMedian(traced, times))
	addShares(rep, samples)
	zeroUnset(rep)
	return rep, tr.Write(r.OutDir, sp.name, r.Seed)
}
