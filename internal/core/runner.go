package core

import (
	"fmt"

	"nucanet/internal/cache"
	"nucanet/internal/config"
	"nucanet/internal/telemetry"
	"nucanet/internal/trace"
)

// Validate checks that the options describe a runnable simulation:
// a resolvable design, a known Table 2 benchmark, defined policy/mode
// values, and a positive access count. Run performs the same checks; use
// Validate to fail fast before queuing work (e.g. building a sweep).
func (o Options) Validate() error {
	d, err := config.Resolve(o.DesignID, o.Design)
	if err != nil {
		return err
	}
	if o.Router != "" {
		// Re-validate with the router override applied: unknown engine
		// names and unsupported (engine, topology) pairs fail here.
		d.Router.Engine = o.Router
		if err := d.Validate(); err != nil {
			return err
		}
	}
	if _, err := trace.ProfileByName(o.Benchmark); err != nil {
		return err
	}
	if !o.Policy.Valid() {
		return fmt.Errorf("core: invalid policy %v", o.Policy)
	}
	if !o.Mode.Valid() {
		return fmt.Errorf("core: invalid mode %v", o.Mode)
	}
	if o.Accesses <= 0 {
		return fmt.Errorf("core: accesses must be positive, got %d", o.Accesses)
	}
	return nil
}

// Runner is the stable entry point for configuring and executing one
// simulation: start from the baseline defaults, apply typed options, and
// Run — which validates before simulating. Prefer this over poking
// Options fields directly; new configuration surface is added here
// without breaking callers.
//
//	r, err := core.NewRunner(core.WithBenchmark("mcf"), core.WithAccesses(5000)).Run()
type Runner struct {
	opts Options
}

// An Option mutates the run configuration; apply them with NewRunner or
// Runner.With.
type Option func(*Options)

// WithDesignID selects a Table 3 design ("A".."F").
func WithDesignID(id string) Option {
	return func(o *Options) { o.DesignID = id; o.Design = nil }
}

// WithDesign supplies an ad-hoc design, overriding any id.
func WithDesign(d *config.Design) Option {
	return func(o *Options) { o.Design = d }
}

// WithScheme selects the replacement policy and delivery mode together
// (the paper's experiments always vary them as a pair).
func WithScheme(p cache.Policy, m cache.Mode) Option {
	return func(o *Options) { o.Policy = p; o.Mode = m }
}

// WithRouter selects a registered router microarchitecture by name,
// overriding the design's engine ("" keeps the design default).
func WithRouter(name string) Option {
	return func(o *Options) { o.Router = name }
}

// WithBenchmark selects a Table 2 workload profile.
func WithBenchmark(name string) Option {
	return func(o *Options) { o.Benchmark = name }
}

// WithAccesses sets the measured L2 access count.
func WithAccesses(n int) Option {
	return func(o *Options) { o.Accesses = n }
}

// WithSeed sets the workload/CPU RNG seed.
func WithSeed(s uint64) Option {
	return func(o *Options) { o.Seed = s }
}

// WithTelemetry enables cycle-level probes.
func WithTelemetry(tc telemetry.Config) Option {
	return func(o *Options) { o.Telemetry = tc }
}

// NewRunner builds a Runner from DefaultOptions with opts applied in
// order (later options win).
func NewRunner(opts ...Option) *Runner {
	r := &Runner{opts: DefaultOptions()}
	return r.With(opts...)
}

// With applies further options and returns r for chaining.
func (r *Runner) With(opts ...Option) *Runner {
	for _, f := range opts {
		f(&r.opts)
	}
	return r
}

// Options returns a copy of the accumulated configuration.
func (r *Runner) Options() Options { return r.opts }

// Run validates the configuration and executes the simulation.
func (r *Runner) Run() (Result, error) {
	if err := r.opts.Validate(); err != nil {
		return Result{}, err
	}
	return Run(r.opts)
}
