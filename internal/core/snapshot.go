package core

import (
	"fmt"

	"refsched/internal/config"
	"refsched/internal/cpu"
	"refsched/internal/dram"
	"refsched/internal/kernel"
	"refsched/internal/mc"
	"refsched/internal/metrics"
	"refsched/internal/sim"
	"refsched/internal/workload"
)

// SystemState is the complete serializable state of a running System at
// an event-quiescent point (between engine run legs): the identity
// needed to rebuild an identical machine (config, mix, footprint
// scale), the run's interval parameters, and every layer's mutable
// state. A system restored from it and run to completion produces
// byte-identical output to the original run — the engine's pending
// events carry their original (when, seq) order, every counter and
// random stream resumes exactly, and the warmup metrics snapshot is
// carried along so the final report diffs against the same baseline.
type SystemState struct {
	// Identity: Restore rebuilds the machine from these.
	Cfg            config.System
	Mix            workload.Mix
	FootprintScale float64

	// Interval parameters of the interrupted run.
	Warmup  uint64
	Measure uint64
	// PastWarmup marks a checkpoint taken after the warmup boundary;
	// WarmupSnap then holds the registry snapshot from that boundary.
	PastWarmup bool
	WarmupSnap metrics.Snapshot

	// Per-layer state.
	Engine sim.EngineState
	Chans  []dram.ChannelState
	MCs    []mc.ControllerState
	Cores  []cpu.CoreState
	Kernel kernel.State
}

// Cycle returns the simulated time the snapshot was taken at.
func (st *SystemState) Cycle() uint64 { return uint64(st.Engine.Now) }

// CheckpointFn receives each periodic snapshot during a checkpointed
// run. Returning an error aborts the run with that error.
type CheckpointFn func(st *SystemState) error

// BoundaryFn is the lazy variant of CheckpointFn: it is invoked at
// every checkpoint boundary but the (expensive) state capture only
// happens if the callback asks for it by calling capture. This is what
// preemption wants — polling "should I stop?" at each boundary costs
// nothing until the answer is yes, at which point capture() flattens
// the machine and the callback can return an error to abort the run
// with the snapshot in hand. Returning a non-nil error aborts the run.
type BoundaryFn func(capture func() (*SystemState, error)) error

// eager adapts an eager CheckpointFn to the lazy boundary protocol:
// capture at every boundary, then hand the state over.
func eager(fn CheckpointFn) BoundaryFn {
	if fn == nil {
		return nil
	}
	return func(capture func() (*SystemState, error)) error {
		st, err := capture()
		if err != nil {
			return err
		}
		return fn(st)
	}
}

// captureState flattens the whole machine into a SystemState. It fails
// when a trace or timeline is attached, or when a task's workload
// generator is not checkpointable.
func (s *System) captureState(warmup, measure uint64, pastWarmup bool, warmSnap metrics.Snapshot) (*SystemState, error) {
	if s.observed {
		return nil, fmt.Errorf("core: cannot checkpoint with a trace or timeline attached")
	}
	eng := s.Eng.SnapshotState()
	kst, err := s.Kernel.State()
	if err != nil {
		return nil, err
	}
	st := &SystemState{
		Cfg:            s.Cfg,
		Mix:            s.Mix,
		FootprintScale: s.footprintScale,
		Warmup:         warmup,
		Measure:        measure,
		PastWarmup:     pastWarmup,
		Engine:         *eng,
		Kernel:         kst,
	}
	if pastWarmup {
		st.WarmupSnap = warmSnap
	}
	for _, ch := range s.Chans {
		st.Chans = append(st.Chans, ch.State())
	}
	for _, c := range s.MCs {
		st.MCs = append(st.MCs, c.State())
	}
	for _, c := range s.Cores {
		st.Cores = append(st.Cores, c.State())
	}
	return st, nil
}

// Restore rebuilds a System from a checkpoint. The machine is
// reconstructed from the snapshot's own config and mix (opt may supply
// a cancellation context; its FootprintScale and Seed are overridden by
// the snapshot's). Call Resume on the result to continue the run.
func Restore(st *SystemState, opt Options) (*System, error) {
	opt.FootprintScale = st.FootprintScale
	opt.Seed = 0 // st.Cfg already carries the effective seed
	s, err := Build(st.Cfg, st.Mix, opt)
	if err != nil {
		return nil, err
	}
	if len(st.Chans) != len(s.Chans) || len(st.MCs) != len(s.MCs) || len(st.Cores) != len(s.Cores) {
		return nil, fmt.Errorf("core: snapshot geometry (%d chans, %d cores) does not match rebuilt system",
			len(st.Chans), len(st.Cores))
	}
	for i, chst := range st.Chans {
		s.Chans[i].SetState(chst)
	}
	for i, cst := range st.MCs {
		s.MCs[i].SetState(cst)
	}
	if err := s.Kernel.SetState(st.Kernel); err != nil {
		return nil, err
	}
	tasks := s.Kernel.Tasks()
	onEnd := s.Kernel.QuantumEndHandler()
	for i, cst := range st.Cores {
		var task cpu.Task
		if cst.TaskID >= 0 {
			if cst.TaskID >= len(tasks) {
				return nil, fmt.Errorf("core: snapshot core %d bound to unknown task %d", i, cst.TaskID)
			}
			task = tasks[cst.TaskID]
		}
		s.Cores[i].RestoreState(cst, task, onEnd)
	}
	// Engine state goes last: it discards the construction-time events
	// (first refresh ticks) and installs the snapshot's population.
	s.Eng.RestoreState(&st.Engine)
	s.restored = true
	s.resWarmup = st.Warmup
	s.resMeasure = st.Measure
	s.pastWarmup = st.PastWarmup
	s.warmSnap = st.WarmupSnap
	return s, nil
}

// RunCheckpointed is Run with periodic checkpoints: every `every`
// cycles of simulated time the machine is flattened into a SystemState
// and handed to fn. every == 0 or fn == nil degrades to plain Run.
// Checkpoint boundaries split the engine's run into legs, which does
// not perturb execution: the report is byte-identical to an
// uncheckpointed run of the same cell.
func (s *System) RunCheckpointed(warmup, measure, every uint64, fn CheckpointFn) (*Report, error) {
	return s.RunPreemptible(warmup, measure, every, eager(fn))
}

// RunPreemptible is RunCheckpointed with the lazy boundary protocol:
// fn is called at every checkpoint boundary but state capture is
// deferred until the callback asks for it. Use this when boundaries
// are frequent and snapshots rare (preemption polling).
func (s *System) RunPreemptible(warmup, measure, every uint64, fn BoundaryFn) (*Report, error) {
	if s.restored {
		return nil, fmt.Errorf("core: restored system must Resume, not Run")
	}
	return s.start(warmup, measure, every, fn)
}

// Resume continues a restored system to the end of its original run,
// optionally emitting further checkpoints (every/fn as in
// RunCheckpointed). The returned report is byte-identical to the one
// the uninterrupted original run would have produced.
func (s *System) Resume(every uint64, fn CheckpointFn) (*Report, error) {
	return s.ResumePreemptible(every, eager(fn))
}

// ResumePreemptible is Resume with the lazy boundary protocol of
// RunPreemptible.
func (s *System) ResumePreemptible(every uint64, fn BoundaryFn) (*Report, error) {
	if !s.restored {
		return nil, fmt.Errorf("core: Resume requires a system built by Restore")
	}
	return s.start(s.resWarmup, s.resMeasure, every, fn)
}

// start is the one-shot entry every run method shares: it refuses a
// second run and checkpointing an observed system, then drives the run
// behind the fault boundary. A restored system skips Kernel.Start: its
// event population already holds the in-flight dispatch chain.
func (s *System) start(warmup, measure, every uint64, fn BoundaryFn) (rep *Report, err error) {
	if s.started {
		return nil, fmt.Errorf("core: system already run")
	}
	if fn == nil {
		every = 0
	}
	if every > 0 && s.observed {
		return nil, fmt.Errorf("core: cannot checkpoint with a trace or timeline attached")
	}
	s.started = true
	defer s.recoverFault(&rep, &err)
	if !s.restored {
		s.Kernel.Start()
	}
	return s.drive(warmup, measure, every, fn)
}

// recoverFault is the run's error boundary: it converts typed sim.Fault
// panics into returned cell-tagged errors and re-raises anything else.
func (s *System) recoverFault(rep **Report, err *error) {
	if p := recover(); p != nil {
		f, ok := p.(sim.Fault)
		if !ok {
			panic(p)
		}
		*rep = nil
		*err = s.cellError(f)
	}
}

// cellError tags err with the cell's identity and the current cycle, so
// a quarantine line is self-describing.
func (s *System) cellError(err error) error {
	return fmt.Errorf("core: %s/%s/%s at cycle %d: %w",
		s.Mix.Name, s.Cfg.Mem.Density, s.Cfg.Refresh.Policy, s.Eng.Now(), err)
}

// nextMultiple lowers next to the first multiple of step after now
// (step == 0 leaves it alone).
func nextMultiple(now, step, next uint64) uint64 {
	if step == 0 {
		return next
	}
	return min(next, (now/step+1)*step)
}

// drive advances the engine from its current time to warmup+measure in
// legs. It is the only place a run stops early. A leg ends at the
// warmup boundary (registry snapshot), at every multiple of every
// (boundary callback fn, when every > 0), and — when Options.Ctx is set
// — at every multiple of cancelCheckCycles, where a cancelled context
// ends the run with a cell-tagged error. The leg structure is invisible
// to the simulation: RunUntil(a); RunUntil(b) executes the identical
// event sequence as RunUntil(b).
func (s *System) drive(warmup, measure, every uint64, fn BoundaryFn) (*Report, error) {
	var poll uint64
	if s.ctx != nil {
		poll = cancelCheckCycles
	}
	total := warmup + measure
	snap := s.warmSnap
	havePast := s.pastWarmup
	if !havePast && uint64(s.Eng.Now()) >= warmup {
		// Already at (or past) the warmup boundary with no snapshot —
		// the warmup == 0 case. Drain due events exactly as a leg ending
		// at warmup would, then snapshot.
		s.Eng.RunUntil(sim.Time(warmup))
		snap = s.snapshot()
		havePast = true
	}
	for now := uint64(s.Eng.Now()); now < total; now = uint64(s.Eng.Now()) {
		next := total
		if !havePast && warmup > now {
			next = min(next, warmup)
		}
		next = nextMultiple(now, poll, nextMultiple(now, every, next))
		s.Eng.RunUntil(sim.Time(next))
		if !havePast && next >= warmup {
			snap = s.snapshot()
			havePast = true
		}
		if next >= total {
			break
		}
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return nil, s.cellError(err)
			}
		}
		if every > 0 && next%every == 0 {
			capture := func() (*SystemState, error) {
				return s.captureState(warmup, measure, havePast, snap)
			}
			if err := fn(capture); err != nil {
				return nil, err
			}
		}
	}
	return s.report(snap, measure), nil
}
