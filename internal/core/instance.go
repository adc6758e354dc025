package core

import (
	"encoding/json"
	"fmt"

	"nucanet/internal/cache"
	"nucanet/internal/cmp"
	"nucanet/internal/config"
	"nucanet/internal/cpu"
	"nucanet/internal/energy"
	"nucanet/internal/network"
	"nucanet/internal/router"
	"nucanet/internal/routing"
	"nucanet/internal/sim"
	"nucanet/internal/telemetry"
	"nucanet/internal/topology"
	"nucanet/internal/trace"
)

// This file splits Run into the two halves batch evaluation needs:
// Prepare produces the run's immutable artifacts (resolved design,
// topology, routing table, warm-state table, access stream) and
// NewInstance assembles the mutable simulation state (kernel, cache
// system, core) over them. Run is Prepare + NewInstance + run-to-idle,
// preserving the pre-split construction sequence exactly — the 48
// regression goldens and the engine bit-identity table are the proof.
// Engine.RunAll shares one PrepCache across a batch and builds each
// worker's Instances from one recycled router.Arena.

// Artifacts is everything about a run that is immutable once prepared.
// All reference fields are shared read-only: many Instances — on one
// goroutine or several — may be built over the same Artifacts, and
// Artifacts of different runs may alias the same Topo/Table/Warm/Accs
// through a PrepCache.
type Artifacts struct {
	Opt    Options       // original options, recorded in Result.Options
	Design config.Design // resolved, router-normalized, validated
	Prof   trace.Profile
	Topo   *topology.Topology
	Table  *routing.Table
	Warm   [][]uint64     // WarmBlocks table for the design's 16 ways
	Accs   []trace.Access // the measured access stream (single-core runs)
	CPU    cpu.Config     // normalized core model config

	// CoreAccs holds the per-core access streams of a CMP run (Options.
	// Cores >= 1): core i's stream, already offset into its private tag
	// range. Accs is nil in that mode, and Warm is the cores' interleaved
	// warm table (cmp.MergeWarm).
	CoreAccs [][]trace.Access

	// WarmImg, when non-nil, is the precomputed post-warm-up bank state
	// for (bank stack, Warm); NewInstance clones it instead of replaying
	// Warm's insert stream. Only cached Prepares carry one — a single run
	// would pay the image build just to use it once.
	WarmImg *cache.WarmImage
}

// PrepCache shares Prepare's expensive immutable artifacts across the
// runs of a batch: the (topology, routing table, static verification)
// triple per distinct design, and the (warm table, access stream) pair
// per distinct (benchmark, seed, geometry, accesses) key. A nil
// *PrepCache disables sharing. Not safe for concurrent use; Engine.RunAll
// prepares its whole batch on one goroutine before fanning out.
type PrepCache struct {
	designs map[string]*designEntry
	traces  map[traceKey]*traceEntry
	images  map[imageKey]*cache.WarmImage
}

// NewPrepCache returns an empty artifact cache.
func NewPrepCache() *PrepCache {
	return &PrepCache{
		designs: map[string]*designEntry{},
		traces:  map[traceKey]*traceEntry{},
		images:  map[imageKey]*cache.WarmImage{},
	}
}

// designEntry caches per-design construction: valErr reproduces
// d.Validate's verdict (surfaced at the same point in Prepare's error
// order), chkErr the network-construction gates (engine progress proof +
// Supports) that cache/network construction would raise.
type designEntry struct {
	topo   *topology.Topology
	tb     *routing.Table
	valErr error
	chkErr error
}

type traceKey struct {
	bench    string
	seed     uint64
	columns  int
	sets     int
	ways     int
	accesses int
	cores    int // 0 = classic single-core stream
}

type traceEntry struct {
	warm     [][]uint64
	accs     []trace.Access
	coreAccs [][]trace.Access
}

// imageKey identifies a warm image: the trace entry pins the address
// geometry and warm-table content, the bank-stack string pins how the
// 16 ways split into banks. Designs differing only in placement (e.g.
// an optimizer wave sweeping CoreX) share one image per benchmark.
type imageKey struct {
	banks string
	te    *traceEntry
}

// design resolves the per-design entry, computing and (when pc is
// non-nil) caching it.
func (pc *PrepCache) design(d config.Design) *designEntry {
	var key string
	if pc != nil {
		raw, err := json.Marshal(d)
		if err != nil {
			panic(fmt.Sprintf("core: design not marshalable: %v", err))
		}
		key = string(raw)
		if e, ok := pc.designs[key]; ok {
			return e
		}
	}
	e := &designEntry{}
	if e.valErr = d.Validate(); e.valErr == nil {
		if e.topo, e.valErr = d.Build(); e.valErr == nil {
			var alg routing.Algorithm
			if alg, e.chkErr = routing.For(e.topo); e.chkErr == nil {
				e.tb, e.chkErr = network.Check(e.topo, alg, d.Router)
			}
		}
	}
	if pc != nil {
		pc.designs[key] = e
	}
	return e
}

// traceFor resolves the warm table and access stream, sharing across
// designs with the same address geometry and total ways. cores >= 1
// produces the CMP form: per-core streams offset into private tag
// ranges (seeded by cpu.CoreSeed so core 0 replays the classic stream)
// and one interleaved warm table.
func (pc *PrepCache) traceFor(d config.Design, prof trace.Profile, seed uint64, accesses, cores int) *traceEntry {
	am := d.AddrMap()
	key := traceKey{prof.Name, seed, am.Columns, am.Sets, d.Ways(), accesses, cores}
	if pc != nil {
		if e, ok := pc.traces[key]; ok {
			return e
		}
	}
	var e *traceEntry
	if cores < 1 {
		gen := trace.NewSynthetic(prof, am, seed)
		e = &traceEntry{warm: gen.WarmBlocks(d.Ways()), accs: trace.Take(gen, accesses)}
	} else {
		warms := make([][][]uint64, cores)
		coreAccs := make([][]trace.Access, cores)
		for i := 0; i < cores; i++ {
			gen := trace.NewSynthetic(prof, am, cpu.CoreSeed(seed, i))
			warms[i] = gen.WarmBlocks(d.Ways())
			coreAccs[i] = trace.Take(gen, accesses)
			for j := range coreAccs[i] {
				coreAccs[i][j].Addr = cmp.OffsetAddr(am, coreAccs[i][j].Addr, i)
			}
		}
		e = &traceEntry{warm: cmp.MergeWarm(am, d.Ways(), warms), coreAccs: coreAccs}
	}
	if pc != nil {
		pc.traces[key] = e
	}
	return e
}

// Prepare resolves and validates opt into the run's immutable artifacts.
// Its validation order — design resolution, router engine lookup, design
// validation, benchmark lookup, accesses bound, policy/mode check,
// network construction gates — matches the order the monolithic Run
// surfaced the same errors in.
func Prepare(opt Options, pc *PrepCache) (*Artifacts, error) {
	dp, err := config.Resolve(opt.DesignID, opt.Design)
	if err != nil {
		return nil, err
	}
	d := *dp
	if opt.Router != "" {
		d.Router.Engine = opt.Router
	}
	// Normalize the engine to its registered name (empty selects the
	// default) so Result.Design records what actually simulated, and fail
	// fast on unknown engines or unsupported (engine, topology) pairs.
	eng, err := router.ByName(d.Router.Engine)
	if err != nil {
		return nil, err
	}
	d.Router.Engine = eng.Name
	de := pc.design(d)
	if de.valErr != nil {
		return nil, de.valErr
	}
	prof, err := trace.ProfileByName(opt.Benchmark)
	if err != nil {
		return nil, err
	}
	if opt.Accesses <= 0 {
		return nil, fmt.Errorf("core: accesses must be positive, got %d", opt.Accesses)
	}
	if opt.Cores < 0 {
		return nil, fmt.Errorf("core: cores must be non-negative, got %d", opt.Cores)
	}
	if opt.Cores > 0 && de.topo != nil {
		if err := cmp.SupportsHost(de.topo, d.ID, opt.Cores); err != nil {
			return nil, err
		}
	}
	if err := cache.ValidatePair(opt.Policy, opt.Mode); err != nil {
		return nil, err
	}
	if de.chkErr != nil {
		return nil, de.chkErr
	}
	te := pc.traceFor(d, prof, opt.Seed, opt.Accesses, opt.Cores)
	cpuCfg := opt.CPU
	if cpuCfg.Window == 0 {
		cpuCfg = cpu.DefaultConfig()
	}
	cpuCfg.Seed = opt.Seed
	art := &Artifacts{
		Opt: opt, Design: d, Prof: prof,
		Topo: de.topo, Table: de.tb,
		Warm: te.warm, Accs: te.accs, CoreAccs: te.coreAccs,
		CPU: cpuCfg,
	}
	if pc != nil {
		art.WarmImg = pc.imageFor(d, te)
	}
	return art, nil
}

// imageFor resolves the cached warm image for (bank stack, warm table),
// building and warming the template banks on first use.
func (pc *PrepCache) imageFor(d config.Design, te *traceEntry) *cache.WarmImage {
	key := imageKey{banks: fmt.Sprint(d.Banks), te: te}
	if img, ok := pc.images[key]; ok {
		return img
	}
	img := cache.BuildWarmImage(d, te.warm)
	pc.images[key] = img
	return img
}

// Instance is one assembled simulation: a kernel, the cache system, and
// the trace-driven core (or, in CMP mode, the fabric and one core per
// port), built over shared Artifacts. RunToCompletion drives it.
type Instance struct {
	Art *Artifacts
	K   *sim.Kernel
	Sys *cache.System
	C   *cpu.Core // the classic single core; nil in CMP mode
	// Fab and cores are the CMP form (Options.Cores >= 1): the fabric
	// attachment over Sys and one trace-driven core per port.
	Fab   *cmp.Fabric
	cores []*cpu.Core
	tel   *telemetry.Collector
}

// NewInstance assembles the mutable simulation state over art. ar, when
// non-nil, is the router-construction arena one engine worker reuses
// across its runs (see router.Arena); it must not be shared across
// goroutines.
func NewInstance(art *Artifacts, ar *router.Arena) (*Instance, error) {
	k := sim.NewKernel()
	sys, err := cache.NewPrebuilt(k, art.Design, art.Opt.Policy, art.Opt.Mode, cache.Prebuilt{
		Topo: art.Topo, Alg: art.Table, Arena: ar, Prechecked: true,
	})
	if err != nil {
		return nil, err
	}
	// The CMP fabric attaches its controllers before any warm state or
	// core registers, mirroring the construction order the analytic cmp
	// runner used (its Cores=1 goldens pin the resulting event order).
	var fab *cmp.Fabric
	if art.Opt.Cores > 0 {
		if fab, err = cmp.Attach(sys, art.Opt.Cores); err != nil {
			return nil, err
		}
	}
	if art.WarmImg != nil {
		sys.WarmClone(art.WarmImg)
	} else {
		sys.Warm(art.Warm)
	}
	var c *cpu.Core
	var cores []*cpu.Core
	if fab != nil {
		cores = make([]*cpu.Core, art.Opt.Cores)
		for i := range cores {
			cfg := art.CPU
			cfg.Seed = cpu.CoreSeed(art.Opt.Seed, i)
			cores[i] = cpu.New(k, fab.Port(i), art.Prof, art.CoreAccs[i], cfg)
		}
	} else {
		c = cpu.New(k, sys, art.Prof, art.Accs, art.CPU)
	}
	// Telemetry is wired after every working component so its sampling
	// observer registers with the highest component id and ticks last
	// within a cycle (see sim.Observer).
	tel := telemetry.New(art.Opt.Telemetry, sys.Topo)
	if tel != nil {
		sys.EnableTelemetry(tel)
	}
	return &Instance{Art: art, K: k, Sys: sys, C: c, Fab: fab, cores: cores, tel: tel}, nil
}

// RunToCompletion drives the instance to quiescence and assembles the
// Result.
func (in *Instance) RunToCompletion() (Result, error) {
	if in.Fab == nil {
		res, err := in.C.Run(1 << 40)
		if err != nil {
			return Result{}, in.wrapErr(err)
		}
		return in.finish(res)
	}
	for _, c := range in.cores {
		c.Start()
	}
	if _, idle := in.K.Run(1 << 40); !idle {
		return Result{}, in.wrapErr(fmt.Errorf("cmp run did not complete"))
	}
	rs := make([]cpu.Result, len(in.cores))
	for i, c := range in.cores {
		r, err := c.Result()
		if err != nil {
			return Result{}, in.wrapErr(fmt.Errorf("core %d: %w", i, err))
		}
		rs[i] = r
	}
	return in.finishCMP(rs)
}

func (in *Instance) wrapErr(err error) error {
	return fmt.Errorf("core: %s/%v/%v/%s: %w",
		in.Art.Design.ID, in.Art.Opt.Policy, in.Art.Opt.Mode, in.Art.Opt.Benchmark, err)
}

// finishCMP drains the fabric and assembles the CMP Result: per-core
// rows from the ports' core-observed accumulators, aggregates over them
// (IPC and instructions sum, cycles take the slowest core), and the
// shared cache's protocol-side statistics for the scalar latency fields.
func (in *Instance) finishCMP(rs []cpu.Result) (Result, error) {
	opt, d, sys := in.Art.Opt, in.Art.Design, in.Sys
	if err := sys.Drain(1 << 30); err != nil {
		return Result{}, err
	}
	// Drain checks the primary controller; the fabric's extra controllers
	// and ports need their own quiescence proof.
	if p := in.Fab.Pending(); p != 0 {
		return Result{}, fmt.Errorf("core: %d requests stuck across the CMP fabric after quiescence", p)
	}
	in.tel.Finish(in.K.Now())

	bank, net, memShare := sys.Lat.Shares()
	netStats := sys.Net.Stats()
	memStats := sys.Memory.Stats()
	erep := energy.DefaultModel().Estimate(energy.Activity{
		FlitHops:     netStats.Router.FlitsRouted,
		BankAccesses: sys.BankAccessesBySize(),
		MemBlocks:    memStats.Reads + memStats.WriteBacks,
		Accesses:     uint64(opt.Accesses) * uint64(len(rs)),
	})
	res := Result{
		Options:      opt,
		Design:       d,
		PerfectIPC:   in.Art.Prof.PerfectIPC,
		AvgLatency:   sys.Lat.Avg(),
		AvgHit:       sys.Lat.AvgHit(),
		AvgMiss:      sys.Lat.AvgMiss(),
		AvgOccupancy: sys.Lat.AvgOccupancy(),
		HitRate:      sys.Lat.HitRate(),
		MRUHitShare:  sys.Lat.HitWayShare(0),
		BankShare:    bank,
		NetworkShare: net,
		MemShare:     memShare,
		BankAccesses: sys.BankAccesses(),
		Network:      netStats,
		Memory:       memStats,
		Latency:      sys.Lat.Clone(),
		Energy:       erep,
		Telemetry:    in.tel,
	}
	for i, cr := range rs {
		p := in.Fab.Port(i)
		total := p.RemoteIssues + p.LocalIssues
		res.Cores = append(res.Cores, CoreResult{
			Core:         i,
			IPC:          cr.IPC(),
			AvgLatency:   p.Lat.Avg(),
			HitRate:      p.Lat.HitRate(),
			RemoteShare:  float64(p.RemoteIssues) / float64(total),
			Instructions: cr.Instructions,
			Cycles:       cr.Cycles,
		})
		res.IPC += cr.IPC()
		res.Instructions += cr.Instructions
		if cr.Cycles > res.Cycles {
			res.Cycles = cr.Cycles
		}
	}
	if sys.Dir != nil {
		rep := sys.Dir.Report()
		res.Directory = &rep
	}
	return res, nil
}

// finish drains the system and assembles the Result exactly as the
// monolithic Run did.
func (in *Instance) finish(res cpu.Result) (Result, error) {
	opt, d, sys := in.Art.Opt, in.Art.Design, in.Sys
	if err := sys.Drain(1 << 30); err != nil {
		return Result{}, err
	}
	in.tel.Finish(in.K.Now())

	bank, net, memShare := sys.Lat.Shares()
	netStats := sys.Net.Stats()
	memStats := sys.Memory.Stats()
	erep := energy.DefaultModel().Estimate(energy.Activity{
		FlitHops:     netStats.Router.FlitsRouted,
		BankAccesses: sys.BankAccessesBySize(),
		MemBlocks:    memStats.Reads + memStats.WriteBacks,
		Accesses:     uint64(opt.Accesses),
	})
	out := Result{
		Options:      opt,
		Design:       d,
		IPC:          res.IPC(),
		PerfectIPC:   in.Art.Prof.PerfectIPC,
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		AvgLatency:   sys.Lat.Avg(),
		AvgHit:       sys.Lat.AvgHit(),
		AvgMiss:      sys.Lat.AvgMiss(),
		AvgOccupancy: sys.Lat.AvgOccupancy(),
		HitRate:      sys.Lat.HitRate(),
		MRUHitShare:  sys.Lat.HitWayShare(0),
		BankShare:    bank,
		NetworkShare: net,
		MemShare:     memShare,
		BankAccesses: sys.BankAccesses(),
		Network:      netStats,
		Memory:       memStats,
		Latency:      sys.Lat.Clone(),
		Energy:       erep,
		Telemetry:    in.tel,
	}
	if sys.Dir != nil {
		rep := sys.Dir.Report()
		out.Directory = &rep
	}
	return out, nil
}
