package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"refsched/internal/timeline"
)

// Track layout of the benchmark's trace: one process, one thread per
// kind of call. Timestamps are host microseconds since the run began.
const (
	tracePid = 1

	tidIteration = 0  // one span per workload iteration (figure or request batch)
	tidCells     = 1  // harness cells, as the CellRunner wrapper sees them
	tidProbe     = 2  // probe cells: build / warmup / measure
	tidDirect    = 3  // direct calls: buddy.New, the allocator walk, approx.Predict
	tidClient    = 10 // serve clients, one thread each
)

// traceCap bounds the spans kept; a run records a few thousand.
const traceCap = 1 << 15

// tracer records spans in memory and writes them once at the end. A
// nil *tracer records nothing.
type tracer struct {
	start time.Time
	rec   *timeline.Recorder

	profile profileShares
	first   []byte // the first traced iteration's raw CPU profile
}

func newTracer(start time.Time) *tracer {
	t := &tracer{start: start}
	t.rec = timeline.NewRecorder(nil, traceCap)
	t.rec.SetProcessName(tracePid, "perfbench")
	for tid, name := range []string{tidIteration: "iterations", tidCells: "cells", tidProbe: "probe cells",
		tidDirect: "direct calls", tidClient: "client 0", tidClient + 1: "client 1"} {
		if name != "" {
			t.rec.SetThreadName(tracePid, int32(tid), name)
		}
	}
	return t
}

// span records [from, now) on tid. key names the figure or request
// kind; index numbers the cell or request within it.
func (t *tracer) span(tid int32, name, key string, index int, from time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.rec.Emit(timeline.Event{
		Ph: timeline.PhaseSpan, Pid: tracePid, Tid: tid, Name: name,
		Ts:      uint64(from.Sub(t.start).Microseconds()),
		Dur:     uint64(now.Sub(from).Microseconds()),
		StrName: "key", Str: key, Arg1Name: "index", Arg1: int64(index),
	})
}

// profiled runs fn under the CPU profiler and folds the profile into
// the run's layer shares.
func (t *tracer) profiled(fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := fn()
	pprof.StopCPUProfile()
	stacks, perr := decodeProfile(buf.Bytes())
	if perr != nil {
		return perr
	}
	t.profile.add(stacks)
	if t.first == nil {
		t.first = buf.Bytes()
	}
	return err
}

// write saves the span trace (Chrome trace-event JSON, loadable in
// Perfetto next to refsim -timeline output) and the first traced
// iteration's CPU profile under dir, and returns their paths.
func (t *tracer) write(dir, stem string) (tracePath, profilePath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	var buf bytes.Buffer
	if _, err := t.rec.WriteTo(&buf); err != nil {
		return "", "", fmt.Errorf("trace: %w", err)
	}
	tracePath = filepath.Join(dir, stem+".trace.json")
	if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
		return "", "", err
	}
	profilePath = filepath.Join(dir, stem+".cpu.pprof")
	if err := os.WriteFile(profilePath, t.first, 0o644); err != nil {
		return "", "", err
	}
	return tracePath, profilePath, nil
}
