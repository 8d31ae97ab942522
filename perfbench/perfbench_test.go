package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run re-executes itself to time set-up.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--setup-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

// declared maps every metric name BENCHMARK.json declares to its unit.
func declared(b *benchmarkFile) map[string]string {
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	return units
}

// TestBenchmarkFileMatchesProgram: the metrics and workloads the program
// prints are exactly the ones BENCHMARK.json declares, with the same
// units, and every name and unit is well formed.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, decls []metricDecl, names []string, units, betters []string) {
		if len(decls) != len(names) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(decls), len(names))
			return
		}
		for i, d := range decls {
			if d.name != names[i] || d.unit != units[i] || d.better != betters[i] {
				t.Errorf("%s[%d]: program %s %s %s, BENCHMARK.json %s %s %s",
					kind, i, d.name, d.unit, d.better, names[i], units[i], betters[i])
			}
		}
	}
	var n, u, bt []string
	seen := map[string]bool{}
	for _, m := range b.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u, bt)
	n, u, bt = nil, nil, nil
	for _, m := range b.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("per_layer", perLayer, n, u, bt)
	for name, unit := range declared(b) {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("malformed metric %q or unit %q", name, unit)
		}
	}
	for _, m := range append(append([]string(nil), n...), namesOf(endToEnd)...) {
		if seen[m] {
			t.Errorf("metric %s declared twice", m)
		}
		seen[m] = true
	}
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("malformed workload %q: %q", w.Name, w.Why)
		}
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames)
	}
}

func namesOf(decls []metricDecl) []string {
	var out []string
	for _, d := range decls {
		out = append(out, d.name)
	}
	return out
}

// runBench runs the benchmark in-process at the tiny size and parses
// its last output line.
func runBench(t *testing.T, workload string, seed int64, trace int) *result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--size", "tiny", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%v: last line does not parse: %v\n%s", args, err, stdout.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, stdout.String())
	}
	units := declared(readBenchmarkFile(t))
	want := endToEnd
	if trace == 1 {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%v: printed %d metrics, want %d", args, len(res.Metrics), len(want))
	}
	for name, m := range res.Metrics {
		if u, ok := units[name]; !ok || u != m.Unit || !nameRE.MatchString(name) {
			t.Errorf("%v: printed metric %s (%s) is not declared with that unit", args, name, m.Unit)
		}
	}
	return &res
}

// TestTinyRunsMatchReferences runs every workload at the tiny size on
// the tuning and held-out seeds; each run checks its output against the
// reference digests and reports correct only when all match.
func TestTinyRunsMatchReferences(t *testing.T) {
	for _, w := range workloadNames {
		for _, seed := range []int64{tuningSeed, heldOutSeed} {
			w, seed := w, seed
			t.Run(w+"/seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				if w == "capacity" && (testing.Short() || seed != tuningSeed) {
					t.Skip("Figure 5 has no small size and ignores the seed; it runs once, outside -short")
				}
				res := runBench(t, w, seed, 0)
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s = %g, want > 0", d.name, res.Metrics[d.name].Value)
					}
				}
			})
		}
	}
}

// TestTracedCountsRepeat: the per-layer counts are a function of the
// inputs, so two traced runs with one seed print them identically.
func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range []string{"contended", "grid", "serve"} {
		w := w
		t.Run(w, func(t *testing.T) {
			if testing.Short() && w != "grid" {
				t.Skip("one traced workload under -short")
			}
			a := runBench(t, w, tuningSeed, 1)
			b := runBench(t, w, tuningSeed, 1)
			for _, d := range perLayer {
				if d.exact && a.Metrics[d.name] != b.Metrics[d.name] {
					t.Errorf("%s: %g then %g", d.name, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
				}
			}
			if w != "serve" && a.Metrics["sim.events"].Value == 0 {
				t.Error("sim.events = 0 on a simulating workload")
			}
		})
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 95 || v != 190 {
		t.Errorf("tail of 1..200 = p%g %g, want p95 190", p, v)
	}
	if p, v := tail(xs[:5]); p != 50 || v != 3 {
		t.Errorf("tail of 1..5 = p%g %g, want p50 3", p, v)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSimSeedFoldsOntoPool(t *testing.T) {
	seen := map[uint64]bool{}
	for s := int64(-3); s < 2*seedPool; s++ {
		v := simSeed(s)
		if v < 1 || v > seedPool {
			t.Fatalf("simSeed(%d) = %d, outside 1..%d", s, v, seedPool)
		}
		seen[v] = true
	}
	if len(seen) != seedPool {
		t.Errorf("seeds reach %d pool members, want %d", len(seen), seedPool)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"refsched/internal/mc.(*Controller).tryIssue": "refsched/internal/mc",
		"refsched/internal/kernel/buddy.New":          "refsched/internal/kernel/buddy",
		"runtime.memclrNoHeapPointers":                "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2":     "internal/runtime/maps",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}
