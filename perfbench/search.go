package main

import (
	"fmt"
	"math"
	"time"

	"nucanet/internal/place"
)

// opt-search: sequential place.Search calls at the default search
// configuration, seeded from the workload seed. Every search of a run is
// the same search, so each must return the same result.

// searchesPerSecond is searches per --seconds (see opCount): at any
// length up to 40 s the run makes the minOps searches its median needs.
const searchesPerSecond = 0.5

// searchBudget is the candidates one search may screen. place.Search
// defaults to 48, but twenty such searches take ~90 s, too long for one
// run; 16 keeps a seed screen, two annealing waves and the confirmation.
const searchBudget = 16

// searchDigest pins one search's outcome.
type searchDigest struct {
	Best      string
	ScoreBits uint64
	Sims      int
}

func digestSearch(r *place.Result) searchDigest {
	return searchDigest{r.Best.String(), math.Float64bits(r.BestScore), r.Sims}
}

// searchAccesses is the simulated access count of one search: every
// screened candidate once per benchmark at screening length, every
// confirmed one at confirmation length.
func searchAccesses(cfg place.Config, r *place.Result) float64 {
	bench := float64(len(place.DefaultBenchmarks))
	return bench * (float64(r.Screened)*float64(cfg.ScreenAccesses) + float64(len(r.Confirmed))*float64(cfg.ConfirmAccesses))
}

func runOptSearch(r Run) (*Report, error) {
	n := opCount(r.Seconds, searchesPerSecond)
	// place.Search's defaults but the budget, spelled out so the access
	// count can be derived; Workers matches the two busy threads.
	cfg := place.Config{Seed: r.Seed, Budget: searchBudget, Wave: 8, ScreenAccesses: 150, ConfirmAccesses: 4000, Workers: 2}
	var warm searchDigest
	setupS, err := timeSetup(func(bool) error {
		res, err := place.Search(cfg)
		if err != nil {
			return fmt.Errorf("warm-up search: %w", err)
		}
		warm = digestSearch(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Attempted: n}
	check := func(i int, res *place.Result, err error) {
		if err != nil {
			rep.fail("search %d: %v", i, err)
			return
		}
		if int64(res.Sims) != int64(res.Screened+len(res.Confirmed))*int64(len(place.DefaultBenchmarks)) {
			rep.fail("search %d: %d sims for %d screened + %d confirmed", i, res.Sims, res.Screened, len(res.Confirmed))
		}
		d := digestSearch(res)
		want := warm
		if r.Seed == defaultSeed {
			want = goldenSearch
		}
		if d != want {
			rep.fail("search %d gave %+v, want %+v", i, d, want)
		}
	}

	// A pass of searches; a traced run first makes ceil(n/2) untraced
	// reference searches, then n traced ones.
	type searchPass struct {
		times                     []float64 // ms per search
		acc, sims, evalWall, work float64
		last                      *place.Result
		delta                     Counters
	}
	pass := func(count int, tr *Tracer) searchPass {
		var p searchPass
		before := readCounters()
		for i := 0; i < count; i++ {
			trace := tr.ID()
			s := time.Now()
			res, err := place.Search(cfg)
			p.times = append(p.times, ms(tr.Record(trace, 0, trace, "place.Search", s)))
			check(i, res, err)
			if err == nil {
				p.acc += searchAccesses(cfg, res)
				p.sims += float64(res.Sims)
				p.evalWall += res.Report.Wall.Seconds()
				p.work += res.Report.Work.Seconds()
				p.last = res
			}
		}
		p.delta = readCounters().Sub(before)
		return p
	}

	if !r.Trace {
		p := pass(n, nil)
		wall := sum(p.times) / 1e3
		t := Timing{Name: "opt-search place.Search", Samples: p.times}
		p50, err := t.Percentile(50)
		if err != nil {
			return nil, err
		}
		fmt.Println("  " + t.Describe(50))
		rep.set("accesses_per_s", p.acc/wall, "1/s")
		rep.set("runs_per_s", p.sims/wall, "1/s")
		rep.set("run_p50_ms", p50, "ms")
		rep.set("op_p50_ms", p50, "ms")
		addCommon(rep, n, p.delta, setupS)
		return rep, nil
	}

	ref := pass((n+1)/2, nil)
	tr := newTracer()
	if err := tr.StartProfile(); err != nil {
		return nil, err
	}
	traced := pass(n, tr)
	samples, err := tr.StopProfile()
	if err != nil {
		return nil, err
	}
	if traced.last == nil {
		return nil, fmt.Errorf("every traced search failed")
	}
	rep.Attempted += len(ref.times)
	// Every search of a run is the same search, so one result's
	// accounting stands for all.
	res := traced.last
	rep.layer("place.accept_ratio", float64(res.Screened)/float64(res.Screened+res.RejectedUnsafe+res.RejectedArea))
	rep.layer("place.sims_per_search", float64(res.Sims))
	rep.layer("place.eval_share", traced.evalWall/(sum(traced.times)/1e3))
	rep.layer("fleet.speedup", traced.work/traced.evalWall)
	addRuntime(rep, traced.delta)
	rep.layer("tracing.overhead_ratio", ratioMedian(traced.times, ref.times))
	addShares(rep, samples)
	zeroUnset(rep)
	return rep, tr.Write(r.OutDir, "opt-search", r.Seed)
}
