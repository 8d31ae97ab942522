// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] [fig3 fig4 fig5 fig10 fig12 fig13 fig14 fig15 table1 table2 | all]
//
// With no arguments it runs everything at the default fidelity
// (scale 64, full footprints, all ten mixes). -quick switches to a fast
// preset for smoke runs. -mode=approx answers sweep cells from the
// analytical model instead of the event-driven engine — a whole figure
// sweep in milliseconds, at the model's documented error bound. It is
// meant for the fig3/fig10/fig11/fig13 grids: cells using uncalibrated
// bundles (FGR, adaptive, OOO) or fig15's scenario mixes quarantine
// with a clear error, fig4's custom bank-mask cells always run exact,
// and energy/OS-counter breakdowns (fig5, tables) are zero in
// analytical reports. -j bounds the worker pool that runs a sweep's
// independent simulation cells; results are identical at any -j, only
// wall-clock time changes. -bench-json additionally records per-figure
// wall-clock and event-engine microbenchmark numbers to a JSON file so
// performance can be tracked across revisions.
//
// Failure semantics are those of a real job scheduler. A failing or
// panicking cell is quarantined into the figure's failure-summary table
// and the rest of the sweep completes (the process then exits 3);
// -failfast restores abort-on-first-error. With -journal DIR every
// completed cell is persisted atomically as it finishes, and -resume
// skips cells already on record — after a crash or Ctrl-C, rerunning
// with -resume finishes the remainder and renders output byte-identical
// to an uninterrupted run. SIGINT cancels gracefully: in-flight cells
// finish and are journaled, the rest are skipped. The -chaos-* flags
// deterministically inject faults for failure drills.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"refsched/internal/buildinfo"
	"refsched/internal/chaos"
	"refsched/internal/harness"
	"refsched/internal/runner"
	"refsched/internal/sim"
)

func main() {
	var (
		version   = flag.Bool("version", false, "print version and exit")
		quick     = flag.Bool("quick", false, "fast preset: larger time scale, fewer mixes, scaled footprints")
		mode      = flag.String("mode", "exact", "simulation tier for sweep cells: exact (event-driven) or approx (analytical model)")
		scale     = flag.Uint64("scale", 0, "override time-scale factor (0 = preset)")
		mixes     = flag.String("mixes", "", "comma-separated mix subset, e.g. WL-1,WL-6 (empty = preset)")
		seed      = flag.Uint64("seed", 1, "random seed")
		windows   = flag.Int("windows", 0, "override measurement windows (0 = preset)")
		verbose   = flag.Bool("v", false, "print each run as it completes")
		jobs      = flag.Int("j", 0, "parallel simulation cells (0 = all CPUs; results identical at any -j)")
		benchJSON = flag.String("bench-json", "", "write per-figure wall-clock + engine microbench JSON to this file")

		failfast   = flag.Bool("failfast", false, "abort a sweep on its first failed cell instead of quarantining it")
		retries    = flag.Int("retries", 0, "max identical-seed retries for transient cell errors (0 = default, <0 = off)")
		journalDir = flag.String("journal", "", "directory for per-figure completed-cell journals (empty = no journaling)")
		resume     = flag.Bool("resume", false, "skip cells already recorded in the journal (requires -journal)")

		chaosFrac = flag.Float64("chaos-frac", 0, "inject faults into this fraction of cells (failure drills)")
		chaosSeed = flag.Uint64("chaos-seed", 1, "seed for deterministic fault placement")
		chaosMode = flag.String("chaos-mode", "transient", "fault shape: transient|error|panic|stall|mixed")

		cpuprofile = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to FILE")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	p := harness.DefaultParams()
	if *quick {
		p = harness.QuickParams()
	}
	if *scale != 0 {
		p.Scale = *scale
	}
	if *mixes != "" {
		p.Mixes = strings.Split(*mixes, ",")
	}
	if *windows != 0 {
		p.MeasureWindows = *windows
	}
	p.Seed = *seed
	p.Mode = *mode
	p.Verbose = *verbose
	p.Parallelism = *jobs
	p.FailFast = *failfast
	p.Retries = *retries
	p.JournalDir = *journalDir
	p.Resume = *resume
	if *resume && *journalDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -journal DIR")
		os.Exit(2)
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if *chaosFrac > 0 {
		mode, err := chaos.ParseMode(*chaosMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		p.Chaos = chaos.New(chaos.Config{Seed: *chaosSeed, Frac: *chaosFrac, Mode: mode})
	}

	// The profile must be stopped (flushed) on every exit path, and
	// os.Exit skips deferred calls, so the stop hook is invoked
	// explicitly before each exit below.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	// SIGINT cancels gracefully: in-flight cells finish (and are
	// journaled); a second SIGINT kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	p.Ctx = ctx

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}

	bench := newBenchRecorder(*benchJSON, p)
	start := time.Now()
	quarantined := 0
	for _, t := range targets {
		t0 := time.Now()
		n, err := runTarget(t, p)
		quarantined += n
		if err != nil {
			stopProfile()
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: interrupted: %v\n", err)
				if *journalDir != "" {
					fmt.Fprintf(os.Stderr, "experiments: completed cells are journaled in %s; rerun with -resume to finish\n", *journalDir)
				}
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		bench.record(t, time.Since(t0))
	}
	stopProfile()
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Second))
	if err := bench.write(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if quarantined > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d cell(s) quarantined; see the failure-summary tables above\n", quarantined)
		os.Exit(3)
	}
}

// runTarget runs one CLI target through harness.RunFigure — the same
// dispatch point the serving daemon uses, which is what keeps a served
// figure byte-identical to this CLI's output — and returns how many of
// its sweep cells were quarantined. Partial results (e.g. an "all" run
// interrupted midway) are still printed before the error is returned.
func runTarget(target string, p harness.Params) (int, error) {
	rs, err := harness.RunFigure(target, p)
	quarantined := 0
	for _, r := range rs {
		quarantined += len(r.Failed)
		fmt.Println(r)
	}
	return quarantined, err
}

// benchRecorder accumulates the -bench-json perf baseline: wall-clock
// per figure target plus event-engine microbenchmark numbers, so future
// revisions have a trajectory to compare against.
type benchRecorder struct {
	path    string
	entries []benchEntry
	params  harness.Params
}

type benchEntry struct {
	Target string  `json:"target"`
	WallMS float64 `json:"wall_ms"`
}

type benchFile struct {
	Parallelism int          `json:"parallelism"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Scale       uint64       `json:"scale"`
	Engine      engineBench  `json:"engine"`
	Targets     []benchEntry `json:"targets"`
}

type engineBench struct {
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
	// RefOpsPerSec is a fixed pure-integer reference loop measured
	// interleaved with the engine passes. Its speed depends only on the
	// machine (and its current clock), never on this repo's code, so
	// benchdiff compares EventsPerSec/RefOpsPerSec ratios — frequency
	// scaling and host drift between two recordings cancel out.
	RefOpsPerSec float64 `json:"ref_ops_per_sec"`
}

func newBenchRecorder(path string, p harness.Params) *benchRecorder {
	return &benchRecorder{path: path, params: p}
}

func (b *benchRecorder) record(target string, d time.Duration) {
	if b.path == "" {
		return
	}
	b.entries = append(b.entries, benchEntry{Target: target, WallMS: float64(d.Microseconds()) / 1000})
}

func (b *benchRecorder) write() error {
	if b.path == "" {
		return nil
	}
	out := benchFile{
		Parallelism: runner.Parallelism(b.params.Parallelism),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Scale:       b.params.Scale,
		Targets:     b.entries,
	}
	out.Engine = measureEngine()
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(b.path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", b.path)
	return nil
}

// measureEngine hand-rolls the BenchmarkEngineRunUntil measurement
// (allocations and throughput of the event engine on the path
// production runs: SchedulePAt, dispatch through SetExec, RunUntil)
// without the testing package, so the CLI can embed it in the baseline
// file. Each iteration schedules one calendar-range payload and
// advances the clock one cycle; throughput counts the events actually
// executed (Executed deltas), not loop iterations.
//
// Two defenses against a noisy host, because this number gates merges:
// each quantity is the best of several passes (interference only ever
// slows a loop down, so max-of-N estimates the machine's true rate),
// and a code-independent reference loop is measured interleaved with
// the engine passes so both see the same clock-frequency environment —
// benchdiff compares the engine/reference ratio, in which host drift
// between recordings cancels.
func measureEngine() engineBench {
	const warm, n, passes = 128, 2_000_000, 5
	e := sim.NewEngine()
	e.SetExec(func(sim.Payload) {})
	e.Reserve(warm * 2)
	p := sim.Payload{Kind: sim.KindMCTryIssue}
	for i := 0; i < warm; i++ {
		e.SchedulePAt(sim.Time(i%31)+1, p)
	}
	var best engineBench
	for pass := 0; pass < passes; pass++ {
		if ref := measureRef(); ref > best.RefOpsPerSec {
			best.RefOpsPerSec = ref
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		ev0 := e.Executed
		t0 := time.Now()
		for i := 0; i < n; i++ {
			now := e.Now()
			e.SchedulePAt(now+sim.Time(i%31)+1, p)
			e.RunUntil(now + 1)
		}
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		events := float64(e.Executed - ev0)
		if evPerSec := events / wall.Seconds(); evPerSec > best.EventsPerSec {
			best.EventsPerSec = evPerSec
			best.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / events
		}
	}
	return best
}

// refSink keeps the reference loop's result observable so the compiler
// cannot delete the loop.
var refSink uint64

// measureRef times a fixed xorshift loop: pure integer work, no memory
// traffic, identical in every revision of this repo. It is the
// denominator that makes engine throughput comparable across
// recordings taken at different host clock speeds.
func measureRef() float64 {
	const n = 20_000_000
	x := uint64(0x9e3779b97f4a7c15)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	wall := time.Since(t0)
	refSink = x
	return float64(n) / wall.Seconds()
}
