package harness

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/workload"
)

// SnapshotStore receives cell snapshots and finished cell reports
// during a checkpointed sweep, and offers them back when the same cell
// runs again. The serving daemon implements it per job so a preempted
// sweep resumes from its last checkpoint boundary (and keeps cells that
// already finished) instead of recomputing. Implementations are called
// from worker goroutines and must be safe for concurrent use when
// Parallelism > 1.
type SnapshotStore interface {
	// LoadSnapshot returns the stored mid-run snapshot for key, or nil.
	LoadSnapshot(key string) *core.SystemState
	// SaveSnapshot stores a mid-run snapshot for key.
	SaveSnapshot(key string, st *core.SystemState)
	// DropSnapshot discards the snapshot for key (the cell finished; a
	// stale snapshot must not satisfy a later run).
	DropSnapshot(key string)
	// LoadReport returns the stored finished report for key, or nil.
	LoadReport(key string) *core.Report
	// SaveReport stores the finished report for key.
	SaveReport(key string, rep *core.Report)
}

// boundaryTimeslices is the checkpoint-boundary cadence of exact cells,
// in scheduler timeslices: frequent enough that a preemption request
// lands quickly, cheap because a boundary without a snapshot costs only
// a leg split.
const boundaryTimeslices = 4

// checkpointKey names a bundle cell for snapshot addressing. It carries
// every coordinate that changes the cell's simulated result; the
// remaining knobs (scale, footprint, windows) are fixed for the
// lifetime of one store.
func (p Params) checkpointKey(d config.Density, b bundle, highTemp bool, mix workload.Mix) string {
	temp := "base"
	if highTemp {
		temp = "hot"
	}
	return fmt.Sprintf("%s_%s_%s_%s_seed%d", d, b.name, mix.Name, temp, p.Seed)
}

// runExact is the one way an exact-engine cell runs. It builds the
// system (then applies setup, when non-nil) or restores it from a
// snapshot in Params.Snapshots, and drives it with HardCtx as the
// hard-cancellation context. ckey addresses the cell in Snapshots; a
// cell with no key (a custom cell whose setup a snapshot cannot
// re-create) never checkpoints. A keyed cell is answered from a stored
// report when there is one, polls Preempt at every boundary — handing
// a snapshot to Snapshots and aborting with the preemption error when
// it fires — and retires its snapshot on completion so a stale one
// never satisfies a later run. The leg structure and every
// snapshot/restore cycle are invisible to the simulation: the report
// is byte-identical to an uninterrupted run's.
func (p Params) runExact(cfg config.System, mix workload.Mix, ckey string, setup func(*core.System) error) (*core.Report, error) {
	store := p.Snapshots
	if ckey == "" {
		store = nil
	}
	if store != nil {
		if rep := store.LoadReport(ckey); rep != nil {
			return rep, nil
		}
	}

	var st *core.SystemState
	if store != nil {
		st = store.LoadSnapshot(ckey)
	}
	var sys *core.System
	var err error
	if st != nil {
		sys, err = core.Restore(st, core.Options{Ctx: p.HardCtx})
	} else {
		sys, err = core.Build(cfg, mix, core.Options{FootprintScale: p.FootprintScale, Ctx: p.HardCtx})
		if err == nil && setup != nil {
			err = setup(sys)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s/%s/%s: %w", mix.Name, cfg.Mem.Density, cfg.Refresh.Policy, err)
	}

	// The lazy boundary: polling Preempt costs nothing; state capture
	// happens only when a preemption was requested.
	var boundary core.BoundaryFn
	if ckey != "" && p.Preempt != nil {
		boundary = func(capture func() (*core.SystemState, error)) error {
			perr := p.Preempt()
			if perr == nil || store == nil {
				return perr
			}
			st, err := capture()
			if err != nil {
				return err
			}
			store.SaveSnapshot(ckey, st)
			return perr
		}
	}

	every := boundaryTimeslices * cfg.Timeslice()
	var rep *core.Report
	if st != nil {
		rep, err = sys.ResumePreemptible(every, boundary)
	} else {
		w := cfg.TREFW()
		rep, err = sys.RunPreemptible(uint64(p.WarmupWindows)*w, uint64(p.MeasureWindows)*w, every, boundary)
	}
	if err != nil {
		return nil, err
	}
	if store != nil {
		store.SaveReport(ckey, rep)
		store.DropSnapshot(ckey)
	}
	return rep, nil
}
