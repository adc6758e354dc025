package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nucanet/internal/config"
	"nucanet/internal/cpu"
	"nucanet/internal/router"
	"nucanet/internal/telemetry"
)

// hashedOptionFields lists every Options field the canonical hash
// covers, in struct order. TestCanonicalKeyCoversAllOptionFields
// compares this list against the Options struct via reflection, so a
// field added to Options without a matching canonicalRun extension (and
// an entry here) fails the build's tests instead of silently aliasing
// distinct configurations in the result cache. Every Options field is
// hashed: none is a pure execution knob that cannot change the Result.
var hashedOptionFields = []string{
	"DesignID", "Design", "Policy", "Mode", "Benchmark", "Router",
	"Accesses", "Seed", "CPU", "Telemetry", "Cores",
}

// canonicalRun is the normalized image of one Options value: the design
// resolved through config.Resolve (so a catalogue id and a byte-equal
// ad-hoc override hash identically) and the CPU config normalized the
// way Run normalizes it before simulating. Two Options values that
// produce this same image produce bit-identical simulations — the
// property the serving cache is built on.
type canonicalRun struct {
	Design    config.Design
	Policy    string
	Mode      string
	Benchmark string
	Accesses  int
	Seed      uint64
	CPU       cpu.Config
	Telemetry telemetry.Config
	Cores     int
}

// CanonicalKey returns the content address of a run: a hex SHA-256 over
// the deterministic encoding of the fully resolved configuration.
// Because Run is deterministic in its resolved configuration, equal keys
// imply byte-identical Results; the serving layer uses the key to
// collapse repeat requests into cache hits. Unresolvable options (the
// same ones Validate rejects) return an error.
func CanonicalKey(o Options) (string, error) {
	d, err := config.Resolve(o.DesignID, o.Design)
	if err != nil {
		return "", err
	}
	// Mirror Run's router normalization: the Options override folds into
	// the resolved design and the engine name canonicalizes through the
	// registry, so an empty engine and an explicit default engine name
	// share one cache line while distinct engines never alias.
	if o.Router != "" {
		d.Router.Engine = o.Router
	}
	eng, err := router.ByName(d.Router.Engine)
	if err != nil {
		return "", err
	}
	d.Router.Engine = eng.Name
	if !o.Policy.Valid() {
		return "", fmt.Errorf("core: invalid policy %v", o.Policy)
	}
	if !o.Mode.Valid() {
		return "", fmt.Errorf("core: invalid mode %v", o.Mode)
	}
	// Mirror Run's CPU normalization so configurations that simulate
	// identically share one cache line.
	cpuCfg := o.CPU
	if cpuCfg.Window == 0 {
		cpuCfg = cpu.DefaultConfig()
	}
	cpuCfg.Seed = o.Seed
	c := canonicalRun{
		Design:    *d,
		Policy:    o.Policy.String(),
		Mode:      o.Mode.String(),
		Benchmark: o.Benchmark,
		Accesses:  o.Accesses,
		Seed:      o.Seed,
		CPU:       cpuCfg,
		Telemetry: o.Telemetry,
		Cores:     o.Cores,
	}
	// encoding/json over plain structs is deterministic: fields emit in
	// declaration order and there are no maps anywhere in canonicalRun.
	buf, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("core: canonical encoding: %w", err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}
