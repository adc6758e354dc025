// Command perfbench is nucanet's benchmark: four fixed-count workloads
// that drive the public entry points of core, place and serve, check
// every simulated output, and print the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON line. See README.md for
// the workloads, the metric definitions and what each layer metric is
// expected to move. Run it through run.sh, which builds it from the
// checkout first:
//
//	bash perfbench/run.sh --workload single-long --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// defaultSeed is the seed whose per-operation digests golden.go pins.
const defaultSeed = 1

// setupReps is how many times each run repeats its set-up; setup_s is
// the median.
const setupReps = 3

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Report is what one workload run produces.
type Report struct {
	Attempted, Failed int
	Metrics           map[string]Metric
}

func (r *Report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{v, unit}
}

// fail records a failed operation with its reason.
func (r *Report) fail(format string, args ...any) {
	r.Failed++
	fmt.Printf("FAILED: "+format+"\n", args...)
}

// Run is one invocation's settings.
type Run struct {
	Seed    uint64
	Seconds int
	Trace   bool
	OutDir  string
}

type workload struct {
	name string
	run  func(Run) (*Report, error)
}

var workloads = []workload{
	{"single-long", runSingleLong},
	{"cmp-h2", runCMPH2},
	{"opt-search", runOptSearch},
	{"serve-mixed", runServeMixed},
}

func main() {
	name := flag.String("workload", "single-long", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "nominal run length; fixes each workload's operation count")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span and profile files of traced runs")
	flag.Parse()

	// The load is one process with at most two busy threads.
	runtime.GOMAXPROCS(2)

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: single-long, cmp-h2, opt-search, serve-mixed)\n")
		os.Exit(2)
	}
	rep, err := w.run(Run{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: *out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer()
	}
	if len(rep.Metrics) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d metrics produced, %d declared\n", w.name, len(rep.Metrics), len(want))
		os.Exit(1)
	}
	for _, m := range want {
		if _, ok := rep.Metrics[m]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not produced\n", w.name, m)
			os.Exit(1)
		}
	}
	printTable(w.name, rep, want)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func printTable(workload string, rep *Report, names []string) {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	fmt.Printf("%s: %d operations attempted, %d failed\n", workload, rep.Attempted, rep.Failed)
	for _, n := range sorted {
		m := rep.Metrics[n]
		fmt.Printf("  %-12s %-32s %14.6g %s\n", workload, n, m.Value, m.Unit)
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
