package sim

import (
	"reflect"
	"sort"
	"testing"
)

// lcg is a tiny deterministic generator for test scripts (avoids
// coupling tests to sim.Rand's stream).
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 33
}

// TestEngineDifferentialOrdering runs a randomized scheduling script on
// the engine and on a trivially correct reference (a sorted list) and
// requires identical execution order. Delays are drawn to exercise all
// three stores — same-cycle FIFO (0), calendar queue (< horizon), and
// far heap (≥ horizon) — including the exact horizon boundary, plus
// nested rescheduling from inside events.
func TestEngineDifferentialOrdering(t *testing.T) {
	delays := []Time{0, 1, 2, 3, 30, 600, calHorizon - 1, calHorizon, calHorizon + 1, 3 * calHorizon, 50000}
	for trial := 0; trial < 20; trial++ {
		e := newTestEngine()
		rng := lcg(1000 + trial)

		// Reference: (when, seq) pairs sorted stably.
		type refEv struct {
			when Time
			seq  int
			id   int
		}
		var ref []refEv
		refSeq := 0
		var refNow Time

		var got []int
		id := 0
		var add func(depth int)
		add = func(depth int) {
			d := delays[rng.next()%uint64(len(delays))]
			myID := id
			id++
			refSeq++
			ref = append(ref, refEv{when: refNow + d, seq: refSeq, id: myID})
			e.after(d, func() {
				got = append(got, myID)
				if depth < 3 && rng.next()%3 == 0 {
					// Nested scheduling relative to this event's time:
					// add() runs synchronously inside the event, so
					// e.Now() is its timestamp.
					refNow = e.Now()
					add(depth + 1)
				}
			})
		}
		// Seed population. Reference "now" tracking: events added from
		// inside a running event use e.Now(); initial adds use 0.
		for i := 0; i < 200; i++ {
			refNow = 0
			add(0)
		}
		// The reference must know nested events' schedule times; easiest
		// is to re-run: instead, execute the engine and reconstruct the
		// reference order afterwards from the recorded (when, seq).
		e.Run()

		sort.SliceStable(ref, func(a, b int) bool {
			if ref[a].when != ref[b].when {
				return ref[a].when < ref[b].when
			}
			return ref[a].seq < ref[b].seq
		})
		want := make([]int, len(ref))
		for i, r := range ref {
			want[i] = r.id
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: execution order diverged from (when, seq) reference\n got=%v\nwant=%v", trial, got, want)
		}
		if e.Pending() != 0 {
			t.Fatalf("trial %d: %d events left pending after Run", trial, e.Pending())
		}
	}
}

// TestEngineRunUntilBoundaryEvents pins the inclusive boundary: events
// scheduled at exactly t run, events one cycle later do not, and the
// clock lands exactly on t either way.
func TestEngineRunUntilBoundaryEvents(t *testing.T) {
	for _, base := range []Time{0, calHorizon - 1, calHorizon, 123456} {
		e := newTestEngine()
		e.RunUntil(base)
		var ranAt, ranAfter, nested bool
		e.at(base+100, func() {
			ranAt = true
			// An event scheduled at the boundary cycle itself must
			// also run before RunUntil returns.
			e.after(0, func() { nested = true })
		})
		e.at(base+101, func() { ranAfter = true })
		e.RunUntil(base + 100)
		if !ranAt || !nested {
			t.Fatalf("base %d: event at boundary ran=%v nested=%v, want both true", base, ranAt, nested)
		}
		if ranAfter {
			t.Fatalf("base %d: event after boundary ran", base)
		}
		if e.Now() != base+100 {
			t.Fatalf("base %d: Now() = %d, want %d", base, e.Now(), base+100)
		}
		if e.Pending() != 1 {
			t.Fatalf("base %d: Pending() = %d, want 1", base, e.Pending())
		}
	}
}

// TestEngineRunUntilPast pins that RunUntil with a bound before the
// current clock executes nothing and leaves the clock unchanged, even
// with same-cycle events pending.
func TestEngineRunUntilPast(t *testing.T) {
	e := newTestEngine()
	e.RunUntil(50)
	ran := false
	e.after(0, func() { ran = true })
	e.RunUntil(10)
	if ran {
		t.Fatal("RunUntil(past) executed a pending same-cycle event")
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
}

// TestEngineAllocationFreeAllStores guards the hot path's 0 allocs/op:
// after warm-up, steady-state scheduling through SchedulePAt and
// execution through RunUntil must be allocation-free in every store —
// the same-cycle FIFO, the calendar queue (whose arena recycles nodes
// via its freelist) and the far heap.
func TestEngineAllocationFreeAllStores(t *testing.T) {
	cases := []struct {
		name  string
		delay func(i int) Time
	}{
		{"fifo", func(int) Time { return 0 }},
		{"calendar", func(i int) Time { return Time(i%31) + 1 }},
		{"heap", func(i int) Time { return calHorizon + Time(i%31)*17 }},
		{"mixed", func(i int) Time {
			switch i % 3 {
			case 0:
				return 0
			case 1:
				return Time(i%600) + 1
			default:
				return calHorizon + Time(i%1000)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			e.SetExec(nop)
			e.Reserve(256)
			i := 0
			step := func() {
				e.SchedulePAt(e.Now()+tc.delay(i), Payload{Kind: KindMCTryIssue})
				e.RunUntil(e.Now() + 1)
				i++
			}
			// Warm until the population (up to ~1.3 horizons of
			// one-per-cycle events) and every store reach steady state.
			for i < 3*calHorizon {
				step()
			}
			// Count every allocation over a long window rather than
			// averaging per step, so amortized store growth (an arena
			// that stops recycling, a FIFO that stops rewinding) fails.
			const window = 2 * calHorizon
			allocs := testing.AllocsPerRun(1, func() {
				for k := 0; k < window; k++ {
					step()
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: %d steady-state SchedulePAt+RunUntil steps allocate %.0f times, want 0", tc.name, window, allocs)
			}
		})
	}
}

// TestEngineReservePresizesCalendarArena verifies the Reserve contract
// for the calendar store specifically: after Reserve(n), scheduling n
// near-future events must not grow the arena.
func TestEngineReservePresizesCalendarArena(t *testing.T) {
	e := NewEngine()
	e.SetExec(nop)
	const n = 500
	e.Reserve(n)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			e.SchedulePAt(e.Now()+Time(i%100)+1, Payload{})
		}
		e.Run()
	})
	// The only possible allocations are store growth, which Reserve
	// must have prevented.
	if allocs != 0 {
		t.Fatalf("scheduling %d calendar events after Reserve(%d) allocates %.2f allocs/op, want 0", n, n, allocs)
	}
}

// TestEngineCalendarWraparound schedules across many horizon multiples
// so bucket slots are reused repeatedly, checking the slot-to-timestamp
// mapping stays unambiguous as the ring wraps.
func TestEngineCalendarWraparound(t *testing.T) {
	e := newTestEngine()
	var got []Time
	want := make([]Time, 0, 64)
	var at Time
	for i := 0; i < 64; i++ {
		at += calHorizon/3 + Time(i*7)
		want = append(want, at)
		e.at(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wraparound execution times diverged\n got=%v\nwant=%v", got, want)
	}
}
