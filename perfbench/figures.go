package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/dram"
	"refsched/internal/harness"
	"refsched/internal/kernel/buddy"
	"refsched/internal/metrics"
	"refsched/internal/runner"
	"refsched/internal/workload"
)

// figureWorkload is one workload that runs a harness figure sweep per
// iteration.
type figureWorkload struct {
	figure string
	// params sets the sweep for a size ("full" or "tiny") and seed.
	params func(size string, seed uint64) harness.Params
	// probes lists cells the traced run rebuilds itself to split build,
	// warmup and measure time (nil: the figure has no simulation cells).
	probes func(p harness.Params) []probeCell
	// unseeded marks a figure that ignores the seed and size: it has one
	// reference digest.
	unseeded bool
}

var figureWorkloads = map[string]*figureWorkload{
	// contended: Figure 15's sensitivity grid on WL-8 (bwaves +
	// h264ref), 36 cells including the 4-core scenarios. Read queues stay
	// deep, so FR-FCFS issue in mc and dram dominates.
	"contended": {
		figure: "fig15",
		params: func(size string, seed uint64) harness.Params {
			p := harness.QuickParams()
			p.Scale = pick(size, 2048, 8192)
			p.Mixes, p.SweepMixes = nil, []string{"WL-8"}
			p.Seed, p.Parallelism = seed, 1
			return p
		},
		probes: func(p harness.Params) []probeCell {
			wl8 := mixNamed("WL-8")
			var out []probeCell
			for _, b := range probeBundles {
				cfg := bundleConfig(p, config.Density32Gb, b)
				cfg.Cores, cfg.Mem.DIMMsPerChannel, cfg.OS.BanksPerTask = 4, 1, 6
				cfg.Name = "fig15-4cores-1:4"
				out = append(out, probeCell{name: "4cores-1:4/32Gb/" + b, cfg: cfg, mix: workload.MixFor(wl8, 4, 4)})
			}
			return out
		},
	},
	// grid: the Figure 10/11 headline grid over the harness's
	// representative mixes (one per intensity class plus the two H+L
	// headline mixes), 45 short cells. Every cell builds a fresh machine,
	// so model build (core.Build, buddy.New) and the cpu/cache models
	// dominate.
	"grid": {
		figure: "fig10",
		params: func(size string, seed uint64) harness.Params {
			p := harness.QuickParams()
			p.Mixes = []string{"WL-1", "WL-3", "WL-5", "WL-6", "WL-8"}
			if size == "tiny" {
				p.Scale, p.Mixes = 4096, []string{"WL-6"}
			}
			p.Seed, p.Parallelism = seed, 1
			return p
		},
		probes: func(p harness.Params) []probeCell {
			mix := mixNamed(p.Mixes[len(p.Mixes)-1])
			var out []probeCell
			for _, b := range probeBundles {
				out = append(out, probeCell{name: mix.Name + "/32Gb/" + b, cfg: bundleConfig(p, config.Density32Gb, b), mix: mix})
			}
			return out
		},
	},
	// capacity: Figure 5, a page-by-page walk of the partition allocator
	// over unscaled buddy allocators. No engine, DRAM timing or CPU
	// model runs, and the figure ignores the seed.
	"capacity": {
		figure: "fig5",
		params: func(_ string, seed uint64) harness.Params {
			p := harness.QuickParams()
			p.Seed, p.Parallelism = seed, 1
			return p
		},
		unseeded: true,
	},
}

func pick(size string, full, tiny uint64) uint64 {
	if size == "tiny" {
		return tiny
	}
	return full
}

func mixNamed(name string) workload.Mix {
	for _, m := range workload.Table2() {
		if m.Name == name {
			return m
		}
	}
	panic("perfbench: unknown mix " + name)
}

// probeBundles are the policy bundles probe cells run, as the figures
// name them.
var probeBundles = []string{"allbank", "perbank", "codesign"}

// bundleConfig builds the machine a harness bundle cell runs: the
// figures' density × policy bundle configuration. A probe cell's report
// must equal the sweep's report for the same cell, which checks this
// construction against the harness's own.
func bundleConfig(p harness.Params, d config.Density, bundle string) config.System {
	cfg := config.Default(d, p.Scale)
	switch bundle {
	case "allbank":
		cfg.Refresh.Policy = config.RefreshAllBank
	case "perbank":
		cfg.Refresh.Policy = config.RefreshPerBankRR
	case "codesign":
		cfg.Refresh.Policy = config.RefreshPerBankSeq
		cfg.OS.Alloc = config.AllocSoftPartition
		cfg.OS.Scheduler = config.SchedCFS
		cfg.OS.RefreshAware = true
	default:
		panic("perfbench: unknown bundle " + bundle)
	}
	cfg.Seed = p.Seed
	return cfg
}

// figureIteration is the outcome of one sweep.
type figureIteration struct {
	wall      time.Duration
	ops       int // cells (or fig5 rows) attempted
	failed    int
	failure   string // why the iteration failed, if it did
	results   []*harness.Result
	reports   []*core.Report
	cellTimes []float64 // ms
	retried   int
	counts    map[string]float64
	figDigest string
	cellsHash string
}

// runFigure runs one sweep through harness.RunFigure with a CellRunner
// that delegates to runner.RunBatch, timing each cell and collecting its
// report, then checks the output against ref (when ref is non-nil).
func runFigure(w *figureWorkload, p harness.Params, ref *figureRef, tr *tracer) (*figureIteration, error) {
	it := &figureIteration{}
	p.CellRunner = func(ctx context.Context, figID string, jobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
		times := make([]time.Duration, len(jobs))
		for i := range jobs {
			i, run, cell := i, jobs[i].Run, jobs[i].Cell.String()
			jobs[i].Run = func() (*core.Report, error) {
				t0 := time.Now()
				rep, err := run()
				times[i] += time.Since(t0)
				tr.span(tidCells, cell, figID, i, t0)
				return rep, err
			}
		}
		b, err := runner.RunBatch(ctx, jobs, opts)
		if b != nil {
			for i := range jobs {
				var rep *core.Report
				if b.OK[i] {
					rep = b.Results[i]
				}
				it.reports = append(it.reports, rep)
				it.cellTimes = append(it.cellTimes, float64(times[i])/1e6)
			}
			it.retried += b.Retried
		}
		return b, err
	}
	t0 := time.Now()
	rs, err := harness.RunFigure(w.figure, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.figure, err)
	}
	it.results = rs
	it.figDigest = textDigest(renderFigure(rs))
	if it.cellsHash, err = cellsDigest(it.reports); err != nil {
		return nil, err
	}
	it.ops = len(it.reports)
	for _, r := range rs {
		it.failed += len(r.Failed)
		if len(it.reports) == 0 {
			it.ops += len(r.Table.Rows) // fig5 runs no cells: count its rows
		}
	}
	if it.failed > 0 {
		it.failure = fmt.Sprintf("%d cells quarantined", it.failed)
	}
	if ref != nil && (ref.Figure != it.figDigest || ref.Cells != it.cellsHash) {
		it.failed = it.ops
		it.failure = "output differs from the reference digests"
	}
	it.wall = time.Since(t0)
	tr.span(tidIteration, w.figure, w.figure, 0, t0)
	it.counts = reportCounts(it.reports)
	it.counts["harness.cells"] = float64(len(it.reports))
	it.counts["runner.retries"] = float64(it.retried)
	it.counts["runner.quarantined"] = float64(it.failedCells())
	return it, nil
}

func (it *figureIteration) failedCells() int {
	n := 0
	for _, r := range it.results {
		n += len(r.Failed)
	}
	return n
}

// instructions sums simulated instructions over the sweep's cells.
func (it *figureIteration) instructions() uint64 {
	var n uint64
	for _, rep := range it.reports {
		if rep != nil {
			for _, t := range rep.Tasks {
				n += t.Instructions
			}
		}
	}
	return n
}

// reportCounts folds the sweep's reports into the per-layer counts.
func reportCounts(reps []*core.Report) map[string]float64 {
	var reads, writes, stalled, refreshes, events, cycles, instr, llc, picks, fallback, fbPages uint64
	var hitWeighted float64
	for _, r := range reps {
		if r == nil {
			continue
		}
		reads += r.Reads
		writes += r.Writes
		stalled += r.RefreshStalledReads
		refreshes += r.RefreshCommands
		events += r.Events
		cycles += r.MeasuredCycles
		hitWeighted += r.RowHitRate * float64(r.Reads+r.Writes)
		picks += r.SchedStats.Picks
		fallback += r.SchedStats.FallbackPicks
		for _, t := range r.Tasks {
			instr += t.Instructions
			llc += t.LLCMisses
			fbPages += t.FallbackPages
		}
	}
	c := map[string]float64{
		"mc.reads":                 float64(reads),
		"mc.writes":                float64(writes),
		"mc.refresh_stalled_reads": float64(stalled),
		"dram.refresh_commands":    float64(refreshes),
		"sim.events":               float64(events),
		"cpu.instructions":         float64(instr),
		"cpu.llc_misses":           float64(llc),
		"sched.picks":              float64(picks),
		"sched.fallback_picks":     float64(fallback),
		"alloc.fallback_pages":     float64(fbPages),
	}
	if reads+writes > 0 {
		c["dram.row_hit_rate"] = hitWeighted / float64(reads+writes)
	}
	if cycles > 0 {
		c["sim.events_per_kcycle"] = float64(events) / float64(cycles) * 1000
	}
	return c
}

// probeCell is a sweep cell the traced run rebuilds through core.Build
// and System.RunPreemptible, with a checkpoint boundary at the warmup
// edge that never captures, to time build, warmup and measure apart.
type probeCell struct {
	name string
	cfg  config.System
	mix  workload.Mix
}

// probeResult is one probe cell's phase split.
type probeResult struct {
	build, warmup, measure time.Duration
	events                 uint64
	queueFullReadStalls    uint64
	report                 []byte
}

func runProbe(pc probeCell, p harness.Params, tr *tracer, index int) (*probeResult, error) {
	t0 := time.Now()
	sys, err := core.Build(pc.cfg, pc.mix, core.Options{FootprintScale: p.FootprintScale})
	if err != nil {
		return nil, fmt.Errorf("probe %s: %w", pc.name, err)
	}
	tBuilt := time.Now()
	tr.span(tidProbe, "build", pc.name, index, t0)
	w := sys.Window()
	warm, meas := uint64(p.WarmupWindows)*w, uint64(p.MeasureWindows)*w
	var tWarm time.Time
	var warmSnap metrics.Snapshot
	rep, err := sys.RunPreemptible(warm, meas, warm, func(func() (*core.SystemState, error)) error {
		if tWarm.IsZero() {
			tWarm = time.Now()
			warmSnap = sys.MetricsSnapshot()
			tr.span(tidProbe, "warmup", pc.name, index, tBuilt)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("probe %s: %w", pc.name, err)
	}
	if tWarm.IsZero() {
		return nil, fmt.Errorf("probe %s: no boundary at the warmup edge", pc.name)
	}
	tEnd := time.Now()
	tr.span(tidProbe, "measure", pc.name, index, tWarm)
	d := sys.MetricsSnapshot().Diff(warmSnap)
	res := &probeResult{build: tBuilt.Sub(t0), warmup: tWarm.Sub(tBuilt), measure: tEnd.Sub(tWarm), events: rep.Events}
	for name, v := range d.Counters {
		if strings.HasPrefix(name, "mc[") && strings.HasSuffix(name, ".queue_full_read_stalls") {
			res.queueFullReadStalls += v
		}
	}
	if res.report, err = json.Marshal(rep); err != nil {
		return nil, err
	}
	return res, nil
}

// probeMetrics runs every probe cell and checks each report against the
// sweep's reports. It returns the probe-derived metrics and how many
// probes disagreed with the sweep.
func probeMetrics(probes []probeCell, p harness.Params, sweep []*core.Report, tr *tracer) (map[string]float64, int, error) {
	known := map[string]bool{}
	for _, r := range sweep {
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, 0, err
		}
		known[string(raw)] = true
	}
	var build, warm, meas []float64
	var measNS float64
	var events, qfull uint64
	mismatched := 0
	for i, pc := range probes {
		r, err := runProbe(pc, p, tr, i)
		if err != nil {
			return nil, 0, err
		}
		if !known[string(r.report)] {
			mismatched++
		}
		build = append(build, float64(r.build)/1e6)
		warm = append(warm, float64(r.warmup)/1e6)
		meas = append(meas, float64(r.measure)/1e6)
		measNS += float64(r.measure)
		events += r.events
		qfull += r.queueFullReadStalls
	}
	m := map[string]float64{
		"core.build_ms":             median(build),
		"core.warmup_ms":            median(warm),
		"core.measure_ms":           median(meas),
		"mc.queue_full_read_stalls": float64(qfull),
	}
	if events > 0 {
		m["sim.host_ns_per_event"] = measNS / float64(events)
	}
	return m, mismatched, nil
}

// buddyNewMS times buddy.New for the workload's machine size (the
// median of three builds, as a partition allocator over it).
func buddyNewMS(cfg config.System, tr *tracer) (float64, error) {
	mapper, err := dram.NewMapper(cfg.Mem)
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		b, err := buddy.New(mapper.TotalPages())
		if err != nil {
			return 0, err
		}
		buddy.NewPartitionAllocator(b, mapper)
		ms = append(ms, float64(time.Since(t0))/1e6)
		tr.span(tidDirect, "buddy.New", cfg.Mem.Density.String(), i, t0)
	}
	return median(ms), nil
}

// walkDensity is the density at which the traced capacity run replays
// Figure 5's allocator walk.
const walkDensity = config.Density8Gb

// allocatorWalk replays Figure 5's walk at walkDensity through the
// public allocator API: for each footprint, allocate pages preferring
// bank 0 until the allocator falls back. It returns the pages walked,
// the time per page, and the column the figure should print.
func allocatorWalk(tr *tracer) (pages uint64, nsPerPage float64, column []string, err error) {
	cfg := config.Default(walkDensity, 1)
	mapper, err := dram.NewMapper(cfg.Mem)
	if err != nil {
		return 0, 0, nil, err
	}
	var walkNS time.Duration
	for i, fe := range workload.SPECFootprints {
		bud, err := buddy.New(mapper.TotalPages())
		if err != nil {
			return 0, 0, nil, err
		}
		alloc := buddy.NewPartitionAllocator(bud, mapper)
		want := (fe.Footprint + cfg.Mem.RowBytes - 1) / cfg.Mem.RowBytes
		mask := buddy.BankMask(0).Set(0)
		last := -1
		var onBank0 uint64
		t0 := time.Now()
		for n := uint64(0); n < want; n++ {
			pfn, fellBack, ok := alloc.AllocPageFor(mask, &last)
			if !ok || fellBack {
				break
			}
			if mapper.PageGlobalBank(pfn) == 0 {
				onBank0++
			}
			pages++
		}
		walkNS += time.Since(t0)
		tr.span(tidDirect, "walk "+fe.Name, walkDensity.String(), i, t0)
		column = append(column, fmt.Sprintf("%.1f%%", float64(onBank0)/float64(want)*100))
	}
	if pages > 0 {
		nsPerPage = float64(walkNS) / float64(pages)
	}
	return pages, nsPerPage, column, nil
}

// fig5Column returns the rendered Figure 5 column for density d, one
// entry per footprint row.
func fig5Column(rs []*harness.Result, d config.Density) []string {
	if len(rs) != 1 {
		return nil
	}
	t := rs[0].Table
	col := -1
	for i, h := range t.Header {
		if h == d.String() {
			col = i
		}
	}
	var out []string
	for _, row := range t.Rows {
		if col >= 0 && col < len(row) && row[0] != "average" {
			out = append(out, row[col])
		}
	}
	return out
}
