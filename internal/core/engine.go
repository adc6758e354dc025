package core

import (
	"runtime"
	"time"

	"nucanet/internal/network"
	"nucanet/internal/router"
	"nucanet/internal/sim"
	"nucanet/internal/stats"
)

// Engine fans independent simulation runs out to a bounded pool of
// worker goroutines — the one way a batch of runs executes. Runs share
// only immutable prepared artifacts; each owns its kernel, RNG streams,
// and stats, so the only cross-goroutine traffic is the job index going
// out and the Result coming back. Results land in submission order
// regardless of completion order, which keeps every sweep bit-identical
// to its sequential execution.
type Engine struct {
	workers int
}

// NewEngine returns an engine with the given parallelism. workers <= 0
// selects runtime.GOMAXPROCS(0); workers == 1 is the sequential
// reference execution.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Workers returns the engine's parallelism.
func (e *Engine) Workers() int { return e.workers }

// SweepReport accounts one parallel sweep: per-run wall-clock times in
// submission order, the summed sequential work, and the sweep's actual
// wall time. Work/Wall is the realized speedup.
type SweepReport struct {
	Runs    int
	Workers int
	Wall    time.Duration // the whole sweep, preparation included
	Work    time.Duration // the batch's preparation plus every PerRun
	PerRun  []time.Duration
}

// Speedup returns summed-work over wall-clock — 1.0 for a sequential
// sweep, approaching Workers for a perfectly parallel one.
func (r SweepReport) Speedup() float64 {
	if r.Wall <= 0 {
		return 1
	}
	return float64(r.Work) / float64(r.Wall)
}

// RunAll executes every Options on the pool and returns the results in
// submission order, bit-identical to calling Run on each. It prepares
// the whole batch on the calling goroutine through one PrepCache, so
// runs of one design share its topology, routing table, and static
// verification, and runs of one (benchmark, seed, geometry) share their
// warm state and access stream. Each run then builds on a router.Arena
// no other goroutine holds, recycled from the run before it. On error
// it returns the lowest-index run's error, exactly as a sequential loop
// would.
func (e *Engine) RunAll(opts []Options) ([]Result, SweepReport, error) {
	start := time.Now()
	rep := SweepReport{Runs: len(opts), Workers: e.workers}
	pc := NewPrepCache()
	arts := make([]*Artifacts, len(opts))
	var prepErr error
	for i, opt := range opts {
		if arts[i], prepErr = Prepare(opt, pc); prepErr != nil {
			// Runs past the failing one cannot supply a lower-index
			// error; run only those before it.
			arts = arts[:i]
			break
		}
	}
	rep.Work = time.Since(start)
	// At most e.workers runs are in flight, so the free list never runs
	// dry.
	arenas := make(chan *router.Arena, e.workers)
	for w := 0; w < e.workers; w++ {
		arenas <- &router.Arena{}
	}
	out, durs, _, err := sim.TimedParMap(e.workers, len(arts), func(i int) (Result, error) {
		ar := <-arenas
		defer func() { arenas <- ar }()
		ar.Reset()
		in, err := NewInstance(arts[i], ar)
		if err != nil {
			return Result{}, err
		}
		return in.RunToCompletion()
	})
	rep.Wall = time.Since(start)
	rep.PerRun = durs
	for _, d := range durs {
		rep.Work += d
	}
	if err == nil {
		err = prepErr
	}
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// Aggregate merges the statistics of many runs into one rollup, using
// the Merge methods of stats.Latency and network.Stats. Adding results
// in submission order makes aggregates reproducible; the Merge methods
// are additionally order-invariant, so any combination tree yields the
// same aggregate (pinned by TestAggregateMergeOrderInvariance).
type Aggregate struct {
	Runs     int
	Accesses int64
	Latency  stats.Latency
	Network  network.Stats
	MemReads uint64
	MemWB    uint64
}

// Add folds one run's statistics into the aggregate.
func (a *Aggregate) Add(r Result) {
	a.Runs++
	a.Accesses += int64(r.Options.Accesses)
	if r.Latency != nil {
		a.Latency.Merge(r.Latency)
	}
	a.Network.Merge(r.Network)
	a.MemReads += r.Memory.Reads
	a.MemWB += r.Memory.WriteBacks
}

// AggregateOf rolls up a result slice in submission order.
func AggregateOf(rs []Result) Aggregate {
	var a Aggregate
	for _, r := range rs {
		a.Add(r)
	}
	return a
}
