package sim

import (
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
type snapshotScript struct {
	e   *Engine
	log []executed
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
			s.e.SchedulePAt(s.e.Now()+d, Payload{Kind: KindMCTryIssue, A: p.A*10 + 1, B: p.B + 1, C: uint64(g)})
		}
	}
}

func newSnapshotScript() *snapshotScript {
	s := &snapshotScript{e: NewEngine()}
	s.e.SetExec(s.exec)
	rng := lcg(42)
	for i := 0; i < 400; i++ {
		d := snapshotDelays[rng.next()%uint64(len(snapshotDelays))] + Time(rng.next()%50)
		s.e.SchedulePAt(d, Payload{Kind: KindMCTryIssue, A: uint64(i), C: rng.next()})
	}
	return s
}

// runTo advances the script to cut and then schedules a few events at
// the current cycle, the way a component does between two RunUntil
// calls; a snapshot taken next finds them in the same-cycle FIFO.
func (s *snapshotScript) runTo(cut Time) {
	s.e.RunUntil(cut)
	for i := uint64(0); i < 5; i++ {
		s.e.SchedulePAt(s.e.Now(), Payload{Kind: KindMCTryIssue, A: 9000 + i, C: i + 1})
	}
}

// TestEngineSnapshotRoundTrip checkpoints a payload-only engine
// between two RunUntil calls, with pending events in the FIFO, the
// calendar ring and the far heap, restores it into a fresh engine, and
// requires the continuation to match an uninterrupted run exactly: the
// executed (Now, Payload) sequence, Executed, and the final clock.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	const cut, end = 9000, 60000

	ref := newSnapshotScript()
	ref.runTo(cut)
	ref.e.RunUntil(end)

	mid := newSnapshotScript()
	mid.runTo(cut)
	st := mid.e.SnapshotState()
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

	got := append(append([]executed(nil), mid.log...), res.log...)
	if !reflect.DeepEqual(got, ref.log) {
		for i := range got {
			if i >= len(ref.log) || got[i] != ref.log[i] {
				t.Fatalf("execution diverged at event %d of %d (snapshot after %d)", i, len(ref.log), len(mid.log))
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
}
