package main

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"nucanet/internal/router.(*VCRouter).Tick":         "router",
		"nucanet/internal/core.Run.func1":                  "core",
		"nucanet/internal/cache.(*System).Warm":            "cache",
		"runtime.mallocgc":                                 "runtime",
		"runtime.gcBgMarkWorker.func2":                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":     "runtime",
		"internal/bytealg.IndexByteString":                 "runtime",
		"slices.pdqsortCmpFunc[go.shape.*uint8]":           "sort",
		"sort.insertionSort":                               "sort",
		"net/http.(*conn).serve":                           "transport",
		"internal/poll.(*FD).Read":                         "transport",
		"syscall.Syscall6":                                 "transport",
		"encoding/json.(*encodeState).marshal":             "other",
		"main.(*CoreLayers).Run":                           "other",
		"type:.eq.nucanet/internal/cache.Policy":           "other",
		"nucanet/internal/sim.(*Kernel).Run[go.shape.ptr]": "sim",
	}
	for fn, want := range cases {
		if got := LayerOf(fn); got != want {
			t.Errorf("LayerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The recorded profile is a traced single-long run (745 samples); the
// expected counts were cross-checked against `go tool pprof -traces`
// leaf frames grouped by the same rules.
func TestLayerSamplesRecordedProfile(t *testing.T) {
	f, err := os.Open("testdata/single-long.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := LayerSamples(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"bank": 18, "cache": 39, "flit": 1, "network": 11, "other": 4,
		"router": 436, "routing": 9, "runtime": 101, "sim": 88, "sort": 28,
		"telemetry": 2, "topology": 2, "trace": 6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("layer samples = %v, want %v", got, want)
	}
}

func TestLayerSamplesRejectsGarbage(t *testing.T) {
	raw, err := os.ReadFile("testdata/single-long.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"not gzip":  []byte("not a profile"),
		"truncated": raw[:len(raw)/2],
	} {
		if _, err := LayerSamples(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
