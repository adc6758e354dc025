package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one operation
// share Trace; Parent is the enclosing span (0 at the top).
type Span struct {
	ID, Parent, Trace uint64
	Name              string
	StartNS, EndNS    int64 // since the tracer started
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per call.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []Span
	prof  bytes.Buffer
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// ID reserves a span id, so children can name a parent that has not
// ended yet.
func (t *Tracer) ID() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// Record stores a finished span and returns its duration.
func (t *Tracer) Record(id, parent, trace uint64, name string, start time.Time) time.Duration {
	end := time.Now()
	if t == nil {
		return end.Sub(start)
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{id, parent, trace, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return end.Sub(start)
}

// StartProfile begins the CPU profile of the traced phase.
func (t *Tracer) StartProfile() error { return pprof.StartCPUProfile(&t.prof) }

// StopProfile ends the CPU profile and reduces it to leaf samples per
// layer.
func (t *Tracer) StopProfile() (map[string]int64, error) {
	pprof.StopCPUProfile()
	return LayerSamples(bytes.NewReader(t.prof.Bytes()))
}

// Write saves the spans as JSON lines and the raw CPU profile under dir,
// named after the workload and seed.
func (t *Tracer) Write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(base+".cpu.pprof", t.prof.Bytes(), 0o644); err != nil {
		return err
	}
	var lines bytes.Buffer
	enc := json.NewEncoder(&lines)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".spans.jsonl", lines.Bytes(), 0o644)
}
