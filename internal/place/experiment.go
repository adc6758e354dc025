package place

import (
	"fmt"
	"io"

	"nucanet/internal/core"
)

// init registers the "placement" experiment: a bounded optimizer search
// reachable from paperbench (-exp placement) and nucad's catalogue.
// cmd/nucaopt exposes the full knob set; the experiment form runs a
// fixed small budget so it completes in tens of seconds. It registers
// InAll=false — a search is a study, not a paper table.
func init() {
	core.RegisterExperiment(core.Experiment{
		Name:  "placement",
		About: "simulated-annealing search for a cache placement beating the Design F halo",
		Title: func(cfg core.ExpConfig) string {
			return "Placement search: annealing over (family, bank stack, endpoints)"
		},
		Run: runExperiment,
	})
}

// runExperiment adapts the experiment interface to Search: a small fixed
// budget, screening at the default short length, confirmation at the
// configured access count, and the configured scheme/benchmark override.
func runExperiment(cfg core.ExpConfig) (core.Rows, core.SweepReport, error) {
	scfg := Config{
		Seed:            cfg.Seed,
		Budget:          24,
		ConfirmAccesses: cfg.Accesses,
		Workers:         cfg.Workers,
		Policy:          cfg.PolicyName,
		Mode:            cfg.ModeName,
	}
	if cfg.Bench != "" {
		scfg.Benchmarks = []string{cfg.Bench}
	}
	res, err := Search(scfg)
	if err != nil {
		return nil, core.SweepReport{}, err
	}
	return Rows{Result: res, Benchmarks: scfg.withDefaults().Benchmarks}, res.Report, nil
}

// Rows renders a search result for paperbench.
type Rows struct {
	Result     *Result
	Benchmarks []string
}

// Render writes the confirmation table and the search accounting.
func (r Rows) Render(w io.Writer) {
	res := r.Result
	fmt.Fprintf(w, "mix: %v; score = geomean IPC; area gate = baseline L2 %.2f mm2\n",
		r.Benchmarks, res.BaselineArea.L2MM2())
	fmt.Fprintln(w, "confirmed candidates (best first):")
	for _, s := range res.Confirmed {
		mark := " "
		if s.Candidate.String() == res.Best.String() {
			mark = "*"
		}
		fmt.Fprintf(w, " %s %-44s ipc %.4f  area %6.2f mm2\n", mark, s.Candidate, s.Score, s.AreaMM2)
	}
	fmt.Fprintf(w, "best %s: ipc %.4f vs baseline %.4f (%+.2f%%), area %.2f vs %.2f mm2\n",
		res.Best, res.BestScore, res.BaselineScore,
		100*(res.BestScore/res.BaselineScore-1),
		res.BestArea.L2MM2(), res.BaselineArea.L2MM2())
	fmt.Fprintf(w, "search: %d screened, %d rejected unsafe, %d rejected by area, %d simulations, hash %016x\n",
		res.Screened, res.RejectedUnsafe, res.RejectedArea, res.Sims, res.Best.Hash())
}
