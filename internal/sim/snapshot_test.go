package sim

import (
	"errors"
	"reflect"
	"testing"
)

// executed is one payload event as observed by the dispatcher.
type executed struct {
	Now Time
	P   Payload
}

// snapshotScript drives a payload-only engine whose whole behaviour
// lives in the payloads themselves, so a restored engine can continue
// it with no state beyond what the snapshot carries. Each payload
// holds an id (A), a nesting depth (B) and a private LCG state (C);
// executing one may schedule a child whose delay is drawn from C.
// stopAfter > 0 stops the engine once, at the first event from that
// many on that still has same-cycle successors waiting in the FIFO.
type snapshotScript struct {
	e         *Engine
	log       []executed
	stopAfter int
}

// snapshotDelays spans every store: same-cycle FIFO (0), the calendar
// ring (< horizon, including its last slot) and the far heap.
var snapshotDelays = []Time{0, 1, 2, 7, 300, 1500, calHorizon - 1, calHorizon, calHorizon + 1, 3 * calHorizon, 40000}

func (s *snapshotScript) exec(p Payload) {
	s.log = append(s.log, executed{Now: s.e.Now(), P: p})
	if p.B < 3 {
		g := lcg(p.C)
		if g.next()%2 == 0 {
			d := snapshotDelays[g.next()%uint64(len(snapshotDelays))]
			s.e.ScheduleP(d, Payload{Kind: KindMCTryIssue, A: p.A*10 + 1, B: p.B + 1, C: uint64(g)})
		}
	}
	if s.stopAfter > 0 && len(s.log) >= s.stopAfter && s.e.fifoHead < len(s.e.fifo) {
		s.e.Stop()
		s.stopAfter = 0
	}
}

func newSnapshotScript(stopAfter int) *snapshotScript {
	s := &snapshotScript{e: NewEngine(), stopAfter: stopAfter}
	s.e.SetExec(s.exec)
	rng := lcg(42)
	for i := 0; i < 400; i++ {
		d := snapshotDelays[rng.next()%uint64(len(snapshotDelays))] + Time(rng.next()%50)
		s.e.SchedulePAt(d, Payload{Kind: KindMCTryIssue, A: uint64(i), C: rng.next()})
	}
	return s
}

// TestEngineSnapshotRoundTrip checkpoints a payload-only engine
// mid-run, with pending events in the FIFO, the calendar ring and the
// far heap, restores it into a fresh engine, and requires the
// continuation to match an uninterrupted run exactly: the executed
// (Now, Payload) sequence, Executed, and the final clock. It also pins
// the refusal of a pending closure.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	const end = 60000

	ref := newSnapshotScript(0)
	ref.e.RunUntil(end)

	cut := newSnapshotScript(len(ref.log) / 3)
	cut.e.RunUntil(end)
	if cut.e.Now() >= end {
		t.Fatal("run never stopped; the snapshot would not be mid-run")
	}
	st, err := cut.e.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var fifo, cal, far int
	for _, ev := range st.Events {
		switch {
		case ev.When == st.Now:
			fifo++
		case ev.When-st.Now < calHorizon:
			cal++
		default:
			far++
		}
	}
	if fifo == 0 || cal == 0 || far == 0 {
		t.Fatalf("snapshot at t=%d has %d FIFO, %d calendar, %d heap events; want all three stores populated",
			st.Now, fifo, cal, far)
	}

	// The fresh engine has a construction-time event of its own, as a
	// built system does; RestoreState must discard it.
	res := &snapshotScript{e: NewEngine()}
	res.e.SetExec(res.exec)
	res.e.SchedulePAt(5, Payload{Kind: KindMCRefreshTick, A: 999})
	res.e.RestoreState(st)
	if res.e.Pending() != len(st.Events) {
		t.Fatalf("restored Pending() = %d, want %d", res.e.Pending(), len(st.Events))
	}
	res.e.RunUntil(end)

	got := append(append([]executed(nil), cut.log...), res.log...)
	if !reflect.DeepEqual(got, ref.log) {
		for i := range got {
			if i >= len(ref.log) || got[i] != ref.log[i] {
				t.Fatalf("execution diverged at event %d of %d (snapshot after %d)", i, len(ref.log), len(cut.log))
			}
		}
		t.Fatalf("restored run executed %d events, want %d", len(got), len(ref.log))
	}
	if res.e.Executed != ref.e.Executed {
		t.Fatalf("Executed = %d, want %d", res.e.Executed, ref.e.Executed)
	}
	if res.e.Now() != ref.e.Now() {
		t.Fatalf("final clock = %d, want %d", res.e.Now(), ref.e.Now())
	}

	// A pending closure cannot be serialized: the snapshot fails with a
	// typed error naming it.
	res.e.Schedule(20, func() {})
	_, err = res.e.SnapshotState()
	var ce *ClosureEventError
	if !errors.As(err, &ce) {
		t.Fatalf("SnapshotState with a pending closure: err = %v, want *ClosureEventError", err)
	}
	if ce.When != end+20 {
		t.Fatalf("ClosureEventError names t=%d, want %d", ce.When, end+20)
	}
}
