package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

// testEngine is an Engine whose dispatcher routes Payload.A to a
// per-test action, so tests can script event bodies inline.
type testEngine struct {
	*Engine
	actions []func()
}

func newTestEngine() *testEngine {
	te := &testEngine{Engine: NewEngine()}
	te.SetExec(func(p Payload) { te.actions[p.A]() })
	return te
}

// at schedules fn at absolute time t.
func (te *testEngine) at(t Time, fn func()) {
	te.actions = append(te.actions, fn)
	te.SchedulePAt(t, Payload{A: uint64(len(te.actions) - 1)})
}

// after schedules fn delay cycles from now.
func (te *testEngine) after(delay Time, fn func()) { te.at(te.Now()+delay, fn) }

// nop is a dispatcher for tests that only count or time events.
func nop(Payload) {}

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := newTestEngine()
	var got []int
	e.after(30, func() { got = append(got, 3) })
	e.after(10, func() { got = append(got, 1) })
	e.after(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAmongSameCycle(t *testing.T) {
	e := newTestEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.after(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle order = %v, want FIFO", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := newTestEngine()
	var got []Time
	e.after(10, func() {
		got = append(got, e.Now())
		e.after(5, func() { got = append(got, e.Now()) })
		e.after(0, func() { got = append(got, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("times = %v, want %v", got, want)
	}
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := newTestEngine()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.after(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 5 and 10", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 100 {
		t.Fatalf("after second RunUntil: fired=%v now=%d", fired, e.Now())
	}
}

func TestEngineRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now() = %d, want 1000", e.Now())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := newTestEngine()
	e.after(10, func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Error("scheduling in the past did not panic")
				return
			}
			// The panic must carry the typed fault — so the core run
			// boundary can convert it into a returned error — and its
			// message must include both offending times.
			fault, ok := p.(*PastEventError)
			if !ok {
				t.Errorf("panic value = %T, want *PastEventError", p)
				return
			}
			if fault.T != 5 || fault.Now != 10 {
				t.Errorf("fault = %+v, want T=5 Now=10", fault)
			}
			var _ Fault = fault // must satisfy the marker interface
			for _, want := range []string{"t=5", "now=10"} {
				if !strings.Contains(fault.Error(), want) {
					t.Errorf("fault message %q missing %q", fault.Error(), want)
				}
			}
		}()
		e.SchedulePAt(5, Payload{})
	})
	e.Run()
}

func TestEngineSameCycleFastPathOrdering(t *testing.T) {
	// Events scheduled at the current cycle take the FIFO fast path;
	// they must still interleave correctly with calendar events
	// previously scheduled for the same cycle.
	e := newTestEngine()
	var got []int
	e.after(10, func() {
		got = append(got, 1)
		e.after(0, func() { got = append(got, 3) })
		e.at(e.Now(), func() { got = append(got, 4) })
	})
	e.after(10, func() { got = append(got, 2) }) // same cycle, scheduled earlier
	e.Run()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineReserve(t *testing.T) {
	e := NewEngine()
	e.SetExec(nop)
	e.Reserve(64)
	for i := 0; i < 64; i++ {
		e.SchedulePAt(Time(i%7)+1, Payload{})
	}
	if e.Pending() != 64 {
		t.Fatalf("Pending = %d, want 64", e.Pending())
	}
	e.Run()
	if e.Executed != 64 {
		t.Fatalf("Executed = %d, want 64", e.Executed)
	}
	// Reserving after events exist must preserve them.
	e.SchedulePAt(e.Now()+1, Payload{})
	e.SchedulePAt(e.Now()+2, Payload{})
	e.Reserve(1024)
	e.Run()
	if e.Executed != 66 {
		t.Fatalf("Executed = %d, want 66", e.Executed)
	}
}

func TestEngineScheduleIsAllocationFree(t *testing.T) {
	// The calendar store must not box events: with a standing backlog
	// inside the reserved capacity, schedule+advance cycles perform
	// zero allocations from the first step, without a warm-up phase.
	// Allocations are counted over the whole window, not averaged per
	// step, so an arena that stops recycling nodes fails.
	e := NewEngine()
	e.SetExec(nop)
	e.Reserve(256)
	for i := 0; i < 128; i++ {
		e.SchedulePAt(Time(i%31)+1, Payload{Kind: KindMCTryIssue})
	}
	const steps = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			e.SchedulePAt(e.Now()+Time(i%31)+1, Payload{Kind: KindMCTryIssue})
			e.RunUntil(e.Now() + 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d SchedulePAt+RunUntil steps allocate %.0f times, want 0", steps, allocs)
	}
	if e.Executed == 0 {
		t.Fatal("no event executed; the backlog never drained")
	}
}

func TestEngineMixedFastAndHeapPaths(t *testing.T) {
	// Property check: a random mix of zero and nonzero delays executes
	// in nondecreasing time order with FIFO ties, and every event runs.
	r := NewRand(3)
	e := newTestEngine()
	total := 0
	var executed int
	var lastWhen Time
	var schedule func(depth int)
	schedule = func(depth int) {
		if depth > 3 {
			return
		}
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			total++
			d := Time(r.Intn(3)) // 0 hits the fast path
			e.after(d, func() {
				if e.Now() < lastWhen {
					t.Errorf("clock went backwards: %d after %d", e.Now(), lastWhen)
				}
				lastWhen = e.Now()
				executed++
				schedule(depth + 1)
			})
		}
	}
	total++
	e.after(1, func() { executed++; schedule(0) })
	e.Run()
	if executed != total {
		t.Fatalf("executed %d of %d events", executed, total)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
}

func TestEngineMonotonicClockProperty(t *testing.T) {
	// Whatever delays are scheduled, observed times never decrease.
	f := func(delays []uint8) bool {
		e := newTestEngine()
		last := Time(0)
		ok := true
		for _, d := range delays {
			d := Time(d)
			e.after(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestRandForkIndependence(t *testing.T) {
	a := NewRand(42)
	f1 := a.Fork()
	f2 := a.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams matched %d/100 draws", same)
	}
}

func TestRandZeroSeedRemapped(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if m := sum / n; m < 0.48 || m > 0.52 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", m)
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

func TestRandPanicsOnBadArgs(t *testing.T) {
	r := NewRand(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Intn(-1) },
		func() { r.Uint64n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad argument did not panic")
				}
			}()
			fn()
		}()
	}
}
