package main

import "time"

// The host this benchmark runs on is shared: over minutes its speed
// drifts by ±15% (seen as every workload and a plain ALU loop slowing
// and recovering together). wall_s is therefore scaled to a reference
// host speed with a calibration loop whose code belongs to the
// benchmark, not the simulator, so a change to the simulator cannot
// move it. The loop is timed before the first iteration and then about
// once a second between iterations; each iteration is scaled by the
// mean of the calibrations around it. setup_s is scaled too: each batch
// of its fresh processes by the latest calibration before the batch.

const (
	// calibrationRounds xorshift steps take calibrationRef seconds on
	// the reference host (a 2-vCPU box, go1.24, when idle).
	calibrationRounds = 100_000_000
	calibrationRef    = 0.25
	// calibrationEvery is the least time between calibrations.
	calibrationEvery = time.Second
)

var calibrationSink uint64

// calibrate times the calibration loop, in seconds.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibrationRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink += x
	return time.Since(t0).Seconds()
}

// calibrator hands each iteration the calibrations taken before and
// after it.
type calibrator struct {
	last    float64
	at      time.Time
	samples []float64
	pending []*outcome // iterations still waiting for a calibration after them
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	c.take()
	return c
}

func (c *calibrator) take() {
	c.last, c.at = calibrate(), time.Now()
	c.samples = append(c.samples, c.last)
	for _, it := range c.pending {
		it.calAfter = c.last
	}
	c.pending = c.pending[:0]
}

// done records a finished iteration and calibrates again when the last
// calibration is more than calibrationEvery old.
func (c *calibrator) done(it *outcome, before float64) {
	it.calBefore = before
	c.pending = append(c.pending, it)
	if time.Since(c.at) >= calibrationEvery {
		c.take()
	}
}

// finish calibrates once more if an iteration still lacks a
// calibration after it.
func (c *calibrator) finish() {
	if len(c.pending) > 0 {
		c.take()
	}
}

// scaled is the iteration's wall time at the reference host speed.
func (it *outcome) scaled() float64 {
	return it.wall.Seconds() * calibrationRef / ((it.calBefore + it.calAfter) / 2)
}
