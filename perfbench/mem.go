package main

import (
	"bytes"
	"os"
	rtmetrics "runtime/metrics"
	"strconv"
	"time"
)

// memEvery is how often an iteration's memory is sampled. A heap peak
// lasts until the collector frees it, tens of milliseconds at least, so
// a few milliseconds resolve it.
const memEvery = 2 * time.Millisecond

// memSampler tracks two peaks while one iteration of a traced run runs:
// the resident set (/proc/self/statm) and the live heap the collector
// last marked (/gc/heap/live:bytes). Neither is steady on a shared host, so both are
// per-layer metrics, not gated ones. The resident peak is what the
// iteration needs plus an overshoot when a concurrent collection falls
// behind its large allocations, and that overshoot comes and goes with
// the host's load (fig5: 252 MB in one run, 310 MB in the next). The
// live-heap peak depends on where in a walk or cell each collection
// happens to mark (fig5: 123 MB to 147 MB).
type memSampler struct {
	stop chan struct{}
	done chan memPeaks
}

type memPeaks struct{ rssMB, liveMB float64 }

func startMem() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan memPeaks, 1)}
	go func() {
		t := time.NewTicker(memEvery)
		defer t.Stop()
		live := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var p memPeaks
		sample := func() {
			p.rssMB = max(p.rssMB, residentMB())
			rtmetrics.Read(live)
			if live[0].Value.Kind() == rtmetrics.KindUint64 {
				p.liveMB = max(p.liveMB, float64(live[0].Value.Uint64())/(1<<20))
			}
		}
		sample()
		for {
			select {
			case <-s.stop:
				sample()
				s.done <- p
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peaks.
func (s *memSampler) finish() memPeaks {
	close(s.stop)
	return <-s.done
}

// residentMB is the process's current resident set size, from
// /proc/self/statm (Linux), or the lifetime peak where that is missing.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		f := bytes.Fields(raw)
		if len(f) > 1 {
			if pages, err := strconv.ParseUint(string(f[1]), 10, 64); err == nil {
				return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	return maxRSSMB()
}
