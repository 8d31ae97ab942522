// Command perfbench is the repository's benchmark: it measures the host
// time of the simulator as its users run it — whole figure sweeps and
// the serving daemon — end to end and per layer, and checks every
// output against reference digests.
//
//	bash perfbench/run.sh --workload contended --seed 0 --seconds 20 --trace 0
//
// It calls only public entry points: harness.RunFigure with a
// CellRunner that delegates to runner.RunBatch, core.Build and
// System.RunPreemptible for probe cells, buddy.New with
// buddy.NewPartitionAllocator, approx.Predict, and service.New served
// over loopback. Workloads, metrics and the reasons for them are in
// README.md; BENCHMARK.json at the repository root declares them.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// from a run that alternates untraced and traced (CPU-profiled,
// span-recorded) iterations.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"refsched/internal/config"
	"refsched/internal/harness"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"contended", "grid", "capacity", "serve"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	size     string
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: contended, grid, capacity or serve")
	fs.Int64Var(&o.seed, "seed", tuningSeed, "workload seed: sets the simulation seed and serve's request sequence")
	fs.IntVar(&o.seconds, "seconds", 20, "how long to measure, in seconds (at least one iteration runs)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.size, "size", "full", "input size: full, or tiny for the benchmark's own tests")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces, profiles and the serve daemon's cache")
	setupChild := fs.Bool("setup-child", false, "prepare the workload, print \"ready\" and exit (how setup_s is timed)")
	regen := fs.String("regen-digests", "", "re-measure every reference digest, write them to `FILE` (perfbench/digests.json) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen != "" {
		if err := regenerate(*regen, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !validWorkload(o.workload) || (trace != 0 && trace != 1) || o.seconds < 1 || (o.size != "full" && o.size != "tiny") {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v, --trace 0|1, --seconds >= 1, --size full|tiny\n", workloadNames)
		return 2
	}
	o.trace = trace == 1
	if *setupChild {
		if err := setupProbe(o, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := measure(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func validWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// prepared is everything a run sets up before its first call into the
// workload.
type prepared struct {
	refs   *references
	params harness.Params  // figure workloads
	fig    *figureWorkload // nil for serve
	reqs   []serveRequest  // serve
	daemon *daemon         // serve: the first iteration's daemon, already answering /healthz
}

func prepare(o options) (*prepared, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	p := &prepared{refs: refs}
	if o.workload == "serve" {
		p.reqs = serveSequence(o.seed, serveRequests(o.size))
		p.daemon, err = startDaemon(o.size, o.out)
		return p, err
	}
	p.fig = figureWorkloads[o.workload]
	p.params = p.fig.params(o.size, simSeed(o.seed))
	return p, nil
}

// setupProbe is the child side of setup_s.
func setupProbe(o options, stdout io.Writer) error {
	p, err := prepare(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	if p.daemon != nil {
		return p.daemon.stop()
	}
	return nil
}

// setup_s is the median of setupRuns fresh processes. They run in
// batches of setupBatch spread over the run, one before the first
// iteration and one after each later one, with the rest after the last,
// so a short stretch of host load moves few of them. Each batch is
// scaled like wall time, by the latest calibration before it.
const (
	setupRuns  = 120
	setupBatch = 20
)

// setupTimer times fresh processes of this binary from start to the
// point where they would make their first call into the workload.
type setupTimer struct {
	exe  string
	args []string
	raw  []float64 // seconds
	secs []float64 // seconds at the reference host speed
}

func newSetupTimer(o options) (*setupTimer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &setupTimer{exe: exe, args: []string{"--setup-child", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--size", o.size, "--out", o.out}}, nil
}

// batch times up to n more processes, stopping at setupRuns in all.
func (st *setupTimer) batch(n int, calibration float64) error {
	for i := 0; i < n && len(st.raw) < setupRuns; i++ {
		cmd := exec.Command(st.exe, st.args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(t0).Seconds()
		io.Copy(io.Discard, out)
		werr := cmd.Wait()
		if err := errors.Join(rerr, werr); err != nil || line != "ready\n" {
			return fmt.Errorf("setup probe: %q %v", line, err)
		}
		st.raw = append(st.raw, elapsed)
		st.secs = append(st.secs, elapsed*calibrationRef/calibration)
	}
	return nil
}

// outcome is one iteration of any workload, reduced to what the
// metrics need.
type outcome struct {
	wall        time.Duration
	ops, failed int
	instr       uint64
	opMS        []float64 // per cell (figures) or per request (serve)
	allocMB     float64
	mem         memPeaks // memory peaks while the iteration ran
	failure     string
	// calBefore and calAfter are the calibration-loop times around the
	// iteration (see calibrate.go).
	calBefore, calAfter float64
	counts              map[string]float64
	fig                 *figureIteration // figure workloads
}

// iterate runs iteration k. Iteration k of a run uses workload seed
// --seed + k: a run covers several inputs, so its median depends less on
// one seed's luck, and the same --seed still gives the same inputs.
func iterate(o options, p *prepared, k int, tr *tracer) (*outcome, error) {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	seed := o.seed + int64(k)
	out := &outcome{}
	if p.fig != nil {
		ref, ok := p.refs.figure(o.workload, o.size, simSeed(seed))
		if !ok {
			return nil, fmt.Errorf("no reference digest for %s size %s sim seed %d", o.workload, o.size, simSeed(seed))
		}
		params := p.params
		if k > 0 {
			params = p.fig.params(o.size, simSeed(seed))
		}
		it, err := runFigure(p.fig, params, &ref, tr)
		if err != nil {
			return nil, err
		}
		out.wall, out.ops, out.failed, out.failure = it.wall, it.ops, it.failed, it.failure
		out.instr, out.opMS = it.instructions(), it.cellTimes
		out.counts, out.fig = it.counts, it
	} else {
		ref := p.refs.Serve[o.size]
		if ref == nil {
			return nil, fmt.Errorf("no reference digests for serve size %s", o.size)
		}
		// The first iteration uses the daemon set-up started; later ones
		// start their own, outside the timed interval.
		d := p.daemon
		p.daemon = nil
		if d == nil {
			var err error
			if d, err = startDaemon(o.size, o.out); err != nil {
				return nil, err
			}
		}
		reqs := p.reqs
		if k > 0 {
			reqs = serveSequence(seed, serveRequests(o.size))
		}
		it, err := runServe(d, reqs, ref, tr)
		if err != nil {
			return nil, err
		}
		out.wall, out.ops, out.failed, out.failure = it.wall, len(it.results), it.failed, it.failure
		for _, r := range it.results {
			out.opMS = append(out.opMS, r.ms)
		}
		out.counts = it.counts()
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	return out, nil
}

// measure runs the workload for o.seconds and assembles the metrics.
func measure(o options, stdout io.Writer) (*result, error) {
	cal := newCalibrator()
	var setup *setupTimer
	if !o.trace {
		var err error
		if setup, err = newSetupTimer(o); err != nil {
			return nil, err
		}
		if err := setup.batch(setupBatch, cal.last); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	p, err := prepare(o)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(start)
	}

	// Iterate until the next iteration would overrun the measuring
	// time. A traced run alternates untraced and traced iterations, each
	// traced one repeating the inputs of the untraced one before it, and
	// runs at least one of each.
	var plain, traced []*outcome
	budget := time.Duration(o.seconds) * time.Second
	for i := 0; ; i++ {
		var it *outcome
		before := cal.last
		// Every iteration starts from a collected heap. A traced run also
		// returns the free memory to the OS and samples memory, so each
		// iteration's resident peak is its own.
		var mem *memSampler
		if o.trace {
			debug.FreeOSMemory()
			mem = startMem()
		} else {
			runtime.GC()
		}
		if o.trace && i%2 == 1 {
			err = tr.profiled(func() (err error) {
				it, err = iterate(o, p, i/2, tr)
				return err
			})
			if it != nil {
				traced = append(traced, it)
			}
		} else {
			k := i
			if o.trace {
				k = i / 2
			}
			it, err = iterate(o, p, k, nil)
			if it != nil {
				plain = append(plain, it)
			}
		}
		var peaks memPeaks
		if mem != nil {
			peaks = mem.finish()
		}
		if err != nil {
			return nil, err
		}
		it.mem = peaks
		cal.done(it, before)
		if setup != nil {
			if err := setup.batch(setupBatch, cal.last); err != nil {
				return nil, err
			}
		}
		if o.trace && len(traced) == 0 {
			continue
		}
		if time.Since(start)+it.wall > budget {
			break
		}
	}
	cal.finish()
	if setup != nil {
		if err := setup.batch(setupRuns, cal.last); err != nil {
			return nil, err
		}
	}

	res := &result{}
	all := append(append([]*outcome(nil), plain...), traced...)
	for _, it := range all {
		res.Attempted += it.ops
		res.Failed += it.failed
		if it.failure != "" {
			fmt.Fprintln(stdout, "perfbench: failed:", it.failure)
		}
	}
	// A traced iteration ran the same inputs as its untraced twin, so
	// its counts must be identical.
	for j, it := range traced {
		for _, d := range perLayer {
			if d.exact && it.counts[d.name] != plain[j].counts[d.name] {
				res.Failed++
				fmt.Fprintf(stdout, "perfbench: failed: %s differs between the untraced and traced runs of one input\n", d.name)
			}
		}
	}

	fmt.Fprintf(stdout, "perfbench: %s seed %d (simulation seed %d), %s size, %d untraced + %d traced iterations\n",
		o.workload, o.seed, simSeed(o.seed), o.size, len(plain), len(traced))
	vals := map[string]float64{
		"wall_raw_s":    median(wallSeconds(plain)),
		"calibration_s": median(cal.samples),
	}
	fmt.Fprintf(stdout, "perfbench: raw wall %.4g s, calibration loop %.4g s (reference %g s)\n",
		vals["wall_raw_s"], vals["calibration_s"], calibrationRef)
	if !o.trace {
		var scaled []float64
		for _, it := range plain {
			scaled = append(scaled, it.scaled())
		}
		vals["wall_s"] = median(scaled)
		vals["setup_s"] = median(setup.secs)
		fmt.Fprintf(stdout, "perfbench: raw setup %.4g ms over %d processes\n", median(setup.raw)*1e3, len(setup.raw))
	} else {
		var rss, live []float64
		for _, it := range plain {
			rss, live = append(rss, it.mem.rssMB), append(live, it.mem.liveMB)
		}
		vals["max_heap_mb"], vals["max_rss_mb"] = slices.Max(live), median(rss)
		fmt.Fprintf(stdout, "perfbench: iteration resident peaks %.4g MB\n", rss)
		extra, err := layerMetrics(o, p, plain, traced, tr, vals, stdout)
		if err != nil {
			return nil, err
		}
		res.Attempted += extra.attempted
		res.Failed += extra.failed
		vals["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0
	decls := endToEnd
	if o.trace {
		decls = perLayer
	}
	res.Metrics = fill(decls, vals)
	for _, d := range decls {
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
	return res, nil
}

func wallSeconds(its []*outcome) []float64 {
	var out []float64
	for _, it := range its {
		out = append(out, it.wall.Seconds())
	}
	return out
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type checks struct{ attempted, failed int }

// layerMetrics fills the traced run's per-layer metrics: counts from
// the first iteration, timings from the untraced iterations, layer
// shares from the traced iterations' CPU profiles, and the probe and
// direct-call measurements. It runs the cross-checks those make.
func layerMetrics(o options, p *prepared, plain, traced []*outcome, tr *tracer, vals map[string]float64, stdout io.Writer) (checks, error) {
	var c checks
	for k, v := range plain[0].counts {
		vals[k] = v
	}
	var rates, allocs, opMS []float64
	for _, it := range plain {
		rates = append(rates, float64(it.instr)/it.wall.Seconds()/1e6)
		allocs = append(allocs, it.allocMB)
		opMS = append(opMS, it.opMS...)
	}
	vals["sim_minstr_per_s"] = median(rates)
	vals["runtime.alloc_mb"] = median(allocs)
	var overhead []float64
	for j, it := range traced {
		overhead = append(overhead, it.wall.Seconds()-plain[j].wall.Seconds())
	}
	vals["trace.overhead_s"] = median(overhead)
	tr.profile.into(vals)

	// opMS holds requests for serve and cells for the figure workloads.
	pct, tailMS := tail(opMS)
	buddyCfg := config.Default(walkDensity, 1) // the machine fig5 walks
	switch {
	case p.fig == nil:
		vals["req_p50_ms"] = percentile(opMS, 50)
		vals["req_tail_ms"], vals["req_tail_pct"] = tailMS, pct
		vals["req_samples"] = float64(len(opMS))
		var perS []float64
		for _, it := range plain {
			perS = append(perS, float64(it.ops)/it.wall.Seconds())
		}
		vals["req_per_s"] = median(perS)
		fmt.Fprintf(stdout, "perfbench: req_tail_ms is p%g over %d requests\n", pct, len(opMS))
		us, err := approxPredictUS(o.size, tr)
		if err != nil {
			return c, err
		}
		vals["approx.predict_us"] = us
		buddyCfg = bundleConfig(serveParams(o.size), config.Density32Gb, "allbank")
	case p.fig.probes != nil:
		vals["harness.cell_p50_ms"] = percentile(opMS, 50)
		vals["harness.cell_tail_ms"] = tailMS
		fmt.Fprintf(stdout, "perfbench: harness.cell_tail_ms is p%g over %d cells\n", pct, len(opMS))
		probes := p.fig.probes(p.params)
		m, mismatched, err := probeMetrics(probes, p.params, plain[0].fig.reports, tr)
		if err != nil {
			return c, err
		}
		for k, v := range m {
			vals[k] = v
		}
		c.attempted += len(probes)
		c.failed += mismatched
		if mismatched > 0 {
			fmt.Fprintf(stdout, "perfbench: %d probe cell report(s) differ from the sweep's\n", mismatched)
		}
		buddyCfg = bundleConfig(p.params, config.Density32Gb, "allbank")
	default: // capacity: no cells, the allocator walk
		pages, ns, col, err := allocatorWalk(tr)
		if err != nil {
			return c, err
		}
		vals["buddy.alloc_pages"], vals["buddy.ns_per_page"] = float64(pages), ns
		c.attempted++
		if !slices.Equal(col, fig5Column(plain[0].fig.results, walkDensity)) {
			c.failed++
			fmt.Fprintln(stdout, "perfbench: the allocator walk disagrees with Figure 5")
		}
	}
	ms, err := buddyNewMS(buddyCfg, tr)
	if err != nil {
		return c, err
	}
	vals["buddy.new_ms"] = ms
	stem := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	tracePath, profPath, err := tr.write(o.out, stem)
	if err != nil {
		return c, err
	}
	fmt.Fprintf(stdout, "perfbench: spans in %s (Perfetto), CPU profile in %s\n", tracePath, profPath)
	return c, nil
}

// regenerate re-measures every reference digest. Figure references come
// from harness.RunFigure; serve references come from the harness
// directly (RunFigure and RunCell with the daemon's parameters), so the
// daemon is checked against the batch path it must match byte for byte.
func regenerate(path string, stdout io.Writer) error {
	refs := &references{
		SeedPool: seedPool, TuningSeed: tuningSeed, HeldOutSeed: heldOutSeed,
		Figures:  map[string]map[string]map[string]figureRef{},
		Unseeded: map[string]figureRef{},
		Serve:    map[string]map[string]string{},
	}
	var names []string
	for n, w := range figureWorkloads {
		if !w.unseeded {
			names = append(names, n)
			continue
		}
		ref, err := referenceRun(n, w, "full", simSeed(tuningSeed), stdout)
		if err != nil {
			return err
		}
		refs.Unseeded[n] = ref
	}
	sort.Strings(names)
	for _, size := range []string{"tiny", "full"} {
		var seeds []uint64
		for s := int64(0); s < seedPool; s++ {
			seeds = append(seeds, simSeed(s))
		}
		for _, name := range names {
			w := figureWorkloads[name]
			if refs.Figures[name] == nil {
				refs.Figures[name] = map[string]map[string]figureRef{}
			}
			bySeed := map[string]figureRef{}
			for _, s := range seeds {
				ref, err := referenceRun(name, w, size, s, stdout)
				if err != nil {
					return err
				}
				bySeed[fmt.Sprint(s)] = ref
			}
			refs.Figures[name][size] = bySeed
		}
		serve := map[string]string{}
		base := serveParams(size)
		for _, r := range allServeRequests() {
			dg, err := serveReference(base, r)
			if err != nil {
				return err
			}
			serve[r.key()] = dg
		}
		refs.Serve[size] = serve
	}
	return writeReferences(path, refs)
}

// referenceRun runs one figure workload without a reference and returns
// its digests.
func referenceRun(name string, w *figureWorkload, size string, seed uint64, stdout io.Writer) (figureRef, error) {
	it, err := runFigure(w, w.params(size, seed), nil, nil)
	if err != nil {
		return figureRef{}, err
	}
	if it.failedCells() > 0 {
		return figureRef{}, fmt.Errorf("%s size %s seed %d: %d cells quarantined", name, size, seed, it.failedCells())
	}
	fmt.Fprintf(stdout, "%s %s seed %d: %s\n", name, size, seed, it.wall.Round(time.Millisecond))
	return figureRef{Figure: it.figDigest, Cells: it.cellsHash}, nil
}

// serveReference computes one serve response's digest through the
// harness directly.
func serveReference(p harness.Params, r serveRequest) (string, error) {
	if r.kind == "cell" {
		p.Seed = r.seed
		rep, err := harness.RunCell(p, r.cell.Mix, r.cell.Density, r.cell.Bundle, false)
		if err != nil {
			return "", err
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return "", err
		}
		return bodyDigest(raw), nil
	}
	if r.kind == "approx" {
		p.Mode = harness.ModeApprox
	}
	rs, err := harness.RunFigure(r.name, p)
	if err != nil {
		return "", err
	}
	for _, x := range rs {
		if len(x.Failed) > 0 {
			return "", fmt.Errorf("%s: %d cells quarantined", r.key(), len(x.Failed))
		}
	}
	return textDigest(renderFigure(rs)), nil
}
