package core

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"testing"

	"refsched/internal/config"
)

// cancelledAt checks the run driver's cancellation error — non-nil, no
// report, context.Canceled in the chain, and the cell-tagged message
// "core: <mix>/<density>/<policy> at cycle N" — and returns N.
func cancelledAt(t *testing.T, rep *Report, err error) uint64 {
	t.Helper()
	if err == nil {
		t.Fatal("run completed despite a cancelled hard context")
	}
	if rep != nil {
		t.Error("cancelled run must not return a report")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in chain", err)
	}
	m := regexp.MustCompile(`^core: smoke/8Gb/allbank at cycle (\d+): `).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("err = %q, want a cell-tagged \"core: smoke/8Gb/allbank at cycle N: ...\" message", err)
	}
	n, _ := strconv.ParseUint(m[1], 10, 64)
	return n
}

// TestRunAbortsOnCancelledContext: Options.Ctx hard-cancels a running
// simulation — the run driver polls it at the end of the first leg and
// returns a cell-tagged error, never a crash, with the context error
// still visible to errors.Is.
func TestRunAbortsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // aborts at the first leg end

	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	// Enough windows that the run spans many cancellation legs (window
	// ≈ 100k cycles at scale 2048).
	rep, err := sys.RunWindows(1, 4)
	n := cancelledAt(t, rep, err)
	if n == 0 || n > cancelCheckCycles || n != sys.Eng.Now() {
		t.Errorf("stopped at cycle %d (engine at %d), want the first leg end in (0, %d]", n, sys.Eng.Now(), cancelCheckCycles)
	}
}

// TestCancelFromBoundaryStopsWithinOneLeg: a context cancelled from
// inside a boundary callback stops the engine no more than
// cancelCheckCycles later, whether the next leg end is a boundary or a
// cancellation poll.
func TestCancelFromBoundaryStopsWithinOneLeg(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	for _, every := range []uint64{10_000, 3*cancelCheckCycles + 7} {
		t.Run(fmt.Sprint(every), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01, Ctx: ctx})
			if err != nil {
				t.Fatal(err)
			}
			var at uint64
			calls := 0
			w := sys.Window()
			rep, err := sys.RunPreemptible(w, 4*w, every, func(func() (*SystemState, error)) error {
				calls++
				at = sys.Eng.Now()
				cancel()
				return nil
			})
			n := cancelledAt(t, rep, err)
			if calls != 1 {
				t.Errorf("boundary called %d times, want once before the run stops", calls)
			}
			if n <= at || n-at > cancelCheckCycles || n != sys.Eng.Now() {
				t.Errorf("cancelled at cycle %d, stopped at %d (engine at %d): want within one %d-cycle leg",
					at, n, sys.Eng.Now(), cancelCheckCycles)
			}
		})
	}
}

// TestRunCompletesWithLiveContext: a live Options.Ctx adds checkpoints
// but changes nothing about a healthy run's result.
func TestRunCompletesWithLiveContext(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)

	plain, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.RunWindows(1, 2)
	if err != nil {
		t.Fatal(err)
	}

	guarded, err := Build(cfg, testMix(), Options{FootprintScale: 0.01, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := guarded.RunWindows(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("installing a live cancellation context changed the simulated result")
	}
}
