package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite experiment golden files")

// TestExperimentCatalogue pins the registry contents: the built-ins in
// the paper's presentation order, with the special-purpose telemetry
// and CMP experiments excluded from "all".
func TestExperimentCatalogue(t *testing.T) {
	want := []string{"t1", "t2", "t3", "t4", "f7", "f8", "f9", "headline", "energy", "power", "pareto", "telemetry", "cmp"}
	names := ExperimentNames()
	if len(names) < len(want) {
		t.Fatalf("ExperimentNames() = %v, want at least %v", names, want)
	}
	for i, name := range want {
		if names[i] != name {
			t.Fatalf("ExperimentNames()[%d] = %q, want %q (full: %v)", i, names[i], name, names)
		}
	}
	for _, name := range want {
		e, err := ExperimentByName(name)
		if err != nil {
			t.Fatalf("ExperimentByName(%q): %v", name, err)
		}
		wantInAll := name != "telemetry" && name != "cmp"
		if e.InAll != wantInAll {
			t.Errorf("experiment %q InAll = %v, want %v", name, e.InAll, wantInAll)
		}
		if e.About == "" || e.Title(DefaultExpConfig()) == "" {
			t.Errorf("experiment %q missing About or Title", name)
		}
	}
	if _, err := ExperimentByName("no-such-experiment"); err == nil {
		t.Error("ExperimentByName on an unknown name did not error")
	}
}

// TestExperimentGoldens locks the registry-dispatched output bytes to
// the committed goldens — the proof that folding the ad-hoc paperbench
// drivers into Experiment.Run/Rows.Render changed no output. Regenerate
// with: go test ./internal/core/ -run TestExperimentGoldens -update
func TestExperimentGoldens(t *testing.T) {
	cfg := ExpConfig{Accesses: 200, Seed: 42}
	for _, name := range []string{"t1", "t2", "t3", "t4", "f7", "energy", "power"} {
		t.Run(name, func(t *testing.T) {
			e, err := ExperimentByName(name)
			if err != nil {
				t.Fatal(err)
			}
			rows, _, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "=== %s ===\n", e.Title(cfg))
			rows.Render(&buf)
			path := filepath.Join("testdata", "exp_"+name+".golden")
			if *updateGoldens {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("experiment %q output drifted from golden %s\ngot:\n%s", name, path, buf.String())
			}
		})
	}
}

// TestExperimentSchemeOverride pins that the registry path still honors
// the scheme override plumbing (the -policy/-mode flags).
func TestExperimentSchemeOverride(t *testing.T) {
	cfg := ExpConfig{Accesses: 100, Seed: 42, PolicyName: "no-such-policy"}
	e, err := ExperimentByName("energy")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(cfg); err == nil || !strings.Contains(err.Error(), "no-such-policy") {
		t.Errorf("energy with bad policy override: err = %v, want mention of the name", err)
	}
}
