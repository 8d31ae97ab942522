package mc

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/refresh"
	"refsched/internal/sim"
)

func newRigWith(t *testing.T, mutate func(*config.MemConfig)) *rig {
	t.Helper()
	cfg := config.Default(config.Density32Gb, 64)
	mutate(&cfg.Mem)
	tm := dram.TimingFrom(&cfg)
	eng := sim.NewEngine()
	ch := dram.NewChannel(0, cfg.Mem, &tm)
	geo := refresh.Geometry{Ranks: cfg.Mem.Ranks(), BanksPerRank: cfg.Mem.BanksPerRank, Timing: &tm}
	p, err := refresh.New(config.RefreshNone, geo)
	if err != nil {
		t.Fatal(err)
	}
	return wireRig(&rig{eng: eng, ch: ch, mc: New(eng, ch, cfg.Mem, p), tm: tm, cfg: cfg})
}

// TestClosedPageLosesRowHits: under the closed-page ablation, two
// accesses to the same row both pay activation; under open-page the
// second is a fast row hit.
func TestClosedPageLosesRowHits(t *testing.T) {
	timeFor := func(closed bool) sim.Time {
		r := newRigWith(t, func(m *config.MemConfig) { m.ClosedPage = closed })
		d1 := r.read(t, 0, 0, 5)
		r.eng.Run()
		_ = d1
		d2 := r.read(t, 0, 0, 5)
		r.eng.Run()
		return *d2
	}
	open := timeFor(false)
	closed := timeFor(true)
	if closed <= open {
		t.Fatalf("closed-page same-row re-access (%d) should be slower than open-page (%d)", closed, open)
	}
}

// TestClosedPageBankStateAlwaysPrecharged: after any access the bank is
// closed.
func TestClosedPageBankStateAlwaysPrecharged(t *testing.T) {
	r := newRigWith(t, func(m *config.MemConfig) { m.ClosedPage = true })
	r.read(t, 0, 3, 9)
	r.eng.Run()
	if r.ch.BankAt(0, 3).OpenRow() != -1 {
		t.Fatal("closed-page bank left a row open")
	}
}

// TestFCFSDoesNotReorder: with FCFS an older row-conflict request is
// served before a younger row hit.
func TestFCFSDoesNotReorder(t *testing.T) {
	r := newRigWith(t, func(m *config.MemConfig) { m.FCFS = true })
	// Open row 1.
	first := r.read(t, 0, 0, 1)
	r.eng.Run()
	_ = first
	conflict := r.read(t, 0, 0, 2) // older, conflicting
	hit := r.read(t, 0, 0, 1)      // younger, would hit under FR-FCFS
	r.eng.Run()
	if !(*conflict < *hit) {
		t.Fatalf("FCFS reordered: conflict at %d, hit at %d", *conflict, *hit)
	}
}
