package sim

import (
	"errors"
	"testing"
)

// tickEveryCycle installs a self-rescheduling tick that keeps the clock
// advancing one cycle at a time for as long as a run lasts.
func tickEveryCycle(e *Engine) {
	e.SetExec(func(p Payload) { e.SchedulePAt(e.Now()+1, p) })
	e.SchedulePAt(1, Payload{})
}

// TestCheckpointCancelsRun: a checkpoint returning an error unwinds
// RunUntil as a typed *CancelFault carrying the cause, leaving the
// engine stopped at the firing cycle rather than fast-forwarded.
func TestCheckpointCancelsRun(t *testing.T) {
	e := NewEngine()
	tickEveryCycle(e)

	cause := errors.New("deadline exceeded")
	calls := 0
	e.SetCheckpoint(100, func() error {
		calls++
		if calls == 3 {
			return cause
		}
		return nil
	})

	var f *CancelFault
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("RunUntil finished despite a failing checkpoint")
			}
			var ok bool
			f, ok = p.(*CancelFault)
			if !ok {
				t.Fatalf("panic value = %T %v, want *CancelFault", p, p)
			}
		}()
		e.RunUntil(10_000)
	}()

	if !errors.Is(f, cause) {
		t.Errorf("CancelFault does not unwrap to the checkpoint error: %v", f)
	}
	var marker Fault = f
	_ = marker // *CancelFault must implement sim.Fault (compile-time check)
	if f.Now == 0 || f.Now > 10_000 {
		t.Errorf("CancelFault.Now = %d, want within the run", f.Now)
	}
	if e.Now() != f.Now {
		t.Errorf("engine clock = %d, want stopped at the fault cycle %d", e.Now(), f.Now)
	}
}

// TestCheckpointInterval: the hook fires at most once per interval
// cycles of clock advance, and removing it (nil fn) stops all calls.
func TestCheckpointInterval(t *testing.T) {
	e := NewEngine()
	tickEveryCycle(e)

	calls := 0
	e.SetCheckpoint(1000, func() error { calls++; return nil })
	e.RunUntil(10_000)
	if calls == 0 || calls > 10 {
		t.Errorf("checkpoint fired %d times over 10k cycles at interval 1000, want 1..10", calls)
	}

	e.SetCheckpoint(0, nil)
	before := calls
	e.RunUntil(20_000)
	if calls != before {
		t.Errorf("checkpoint fired %d more times after removal", calls-before)
	}
}
