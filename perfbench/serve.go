package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"refsched/internal/approx"
	"refsched/internal/config"
	"refsched/internal/harness"
	"refsched/internal/service"
)

// The serve workload: an in-process refschedd (service.New, one node,
// no job WAL) on loopback, driven in a closed loop by serveClients
// clients from a seeded request sequence. Each iteration starts a
// fresh daemon, so every iteration sees the same misses, repeats and
// coalesced duplicates.

const serveClients = 2

// serveParams is the daemon's base simulation parameter set.
func serveParams(size string) harness.Params {
	p := harness.QuickParams()
	p.Mixes = []string{"WL-6"}
	p.Scale = pick(size, 1024, 4096)
	return p
}

// serveRequests is how many requests one iteration sends.
func serveRequests(size string) int {
	if size == "tiny" {
		return 40
	}
	return 400
}

// The request mix is cmd/refload's default traffic, the shape
// EXPERIMENTS.md and the refschedd soak test drive the daemon with:
// 60% single-cell job POSTs (-cell-frac 0.6) of mix WL-6 (-mixes WL-6)
// over 4 densities × 5 policy bundles, each with a seed drawn from
// 1..seeds; the other 40% figure GETs, half of them fidelity=approx
// (-approx-frac 0.5). It is scaled down to fit a run:
//   - refload sends 5000 requests over 64 seeds; an iteration sends 400,
//     so the seed space shrinks in proportion, to 5. 240 cell POSTs over
//     100 distinct cells mix misses, repeats and coalesced duplicates.
//   - refload GETs every figure target. fig5 and fig15 are left out: at
//     the daemon's parameters fig5 takes most of a run, and fig15 as long
//     as the rest of an iteration, repeating what contended measures.
//   - An approx GET of a figure with a policy the analytical tier does
//     not model (fig12, fig14, ext1) answers with those cells
//     quarantined by design; approx GETs go to the other figures.
const (
	serveCellFrac   = 0.6
	serveApproxFrac = 0.5
	serveCellSeeds  = 5
	serveCellMix    = "WL-6"
)

var (
	serveFigures       = []string{"table1", "table2", "fig3", "fig4", "fig10", "fig12", "fig13", "fig14", "ext1"}
	serveApproxFigures = []string{"table1", "table2", "fig3", "fig4", "fig10", "fig13"}
	serveCellDensities = []string{"8Gb", "16Gb", "24Gb", "32Gb"}
	serveCellBundles   = []string{"allbank", "perbank", "codesign", "fgr2x", "adaptive"}
)

type serveRequest struct {
	kind string // "figure", "approx" or "cell"
	name string // figure name (figure, approx)
	cell service.CellSpec
	seed uint64 // cell: the simulation seed the job asks for
}

// key names the request's response in the reference digests.
func (r serveRequest) key() string {
	if r.kind == "cell" {
		return fmt.Sprintf("cell/%s/%s/%s/seed%d", r.cell.Mix, r.cell.Density, r.cell.Bundle, r.seed)
	}
	return r.kind + "/" + r.name
}

// serveSequence is the seeded request sequence, drawn the way refload
// draws its requests.
func serveSequence(seed int64, n int) []serveRequest {
	rng := rand.New(rand.NewSource(seed))
	out := make([]serveRequest, n)
	for i := range out {
		if rng.Float64() < serveCellFrac {
			out[i] = serveRequest{kind: "cell", cell: service.CellSpec{
				Mix:     serveCellMix,
				Density: serveCellDensities[rng.Intn(len(serveCellDensities))],
				Bundle:  serveCellBundles[rng.Intn(len(serveCellBundles))],
			}, seed: rng.Uint64()%serveCellSeeds + 1}
			continue
		}
		if rng.Float64() < serveApproxFrac {
			out[i] = serveRequest{kind: "approx", name: serveApproxFigures[rng.Intn(len(serveApproxFigures))]}
		} else {
			out[i] = serveRequest{kind: "figure", name: serveFigures[rng.Intn(len(serveFigures))]}
		}
	}
	return out
}

// allServeRequests lists every distinct request, for regenerating the
// reference digests.
func allServeRequests() []serveRequest {
	var out []serveRequest
	for _, f := range serveFigures {
		out = append(out, serveRequest{kind: "figure", name: f})
	}
	for _, f := range serveApproxFigures {
		out = append(out, serveRequest{kind: "approx", name: f})
	}
	for _, d := range serveCellDensities {
		for _, b := range serveCellBundles {
			for s := uint64(1); s <= serveCellSeeds; s++ {
				out = append(out, serveRequest{kind: "cell", cell: service.CellSpec{Mix: serveCellMix, Density: d, Bundle: b}, seed: s})
			}
		}
	}
	return out
}

// daemon is one in-process refschedd listening on loopback.
type daemon struct {
	srv     *service.Server
	hs      *http.Server
	served  chan error
	base    string
	journal string
	client  *http.Client
}

// startDaemon starts a daemon and waits until /healthz answers.
func startDaemon(size, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jpath := filepath.Join(dir, "serve-cache.json")
	if err := os.Remove(jpath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	srv, err := service.New(service.Config{
		Params: serveParams(size), Workers: serveClients, CellSlots: serveClients, JournalPath: jpath,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), journal: jpath,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("serve: /healthz did not answer: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon (persisting its cache) and closes the
// listener, waiting for the server goroutine to return.
func (d *daemon) stop() error {
	err := d.srv.Shutdown(context.Background())
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
	return err
}

// cachedBodies reads the cache the daemon persisted on shutdown (the
// refschedd -journal format) and digests every body.
func (d *daemon) cachedBodies() (map[string]bool, error) {
	raw, err := os.ReadFile(d.journal)
	if err != nil {
		return nil, err
	}
	var f struct {
		Entries map[string]string `json:"entries"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("serve cache journal: %w", err)
	}
	out := map[string]bool{}
	for _, body := range f.Entries {
		out[bodyDigest([]byte(body))] = true
	}
	return out, nil
}

// served is one completed request.
type served struct {
	req      serveRequest
	ms       float64
	ok       bool
	waitMS   float64 // queue wait of a cell job that ran (-1 otherwise)
	failText string
}

// do sends one request and checks its response against ref (nil: no
// check). Figure bodies are checked here; cell job bodies are not
// served over HTTP, so they are checked from the persisted cache.
func (d *daemon) do(r serveRequest, ref map[string]string) served {
	t0 := time.Now()
	s := served{req: r, waitMS: -1}
	var err error
	switch r.kind {
	case "figure", "approx":
		url := d.base + "/v1/figures/" + r.name
		if r.kind == "approx" {
			url += "?fidelity=approx"
		}
		var body []byte
		body, err = d.get(url)
		if err == nil && ref != nil && bodyDigest(body) != ref[r.key()] {
			err = fmt.Errorf("%s: response differs from the reference", r.key())
		}
	case "cell":
		s.waitMS, err = d.cell(r.cell, r.seed)
	}
	s.ms = float64(time.Since(t0)) / 1e6
	s.ok = err == nil
	if err != nil {
		s.failText = err.Error()
	}
	return s
}

func (d *daemon) get(url string) ([]byte, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// cell submits a single-cell job, follows its event stream to the end
// and reads its final status. It returns the job's queue wait in ms
// when it ran (-1 for a cache hit or a coalesced duplicate).
func (d *daemon) cell(c service.CellSpec, seed uint64) (float64, error) {
	reqBody, err := json.Marshal(service.Request{Cell: &c, Params: &service.ParamOverrides{Seed: &seed}})
	if err != nil {
		return -1, err
	}
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return -1, err
	}
	var ack struct {
		ID      string `json:"id"`
		Deduped bool   `json:"deduped"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if err != nil {
		return -1, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return -1, fmt.Errorf("POST cell: %s", resp.Status)
	}
	if _, err := d.get(d.base + "/v1/jobs/" + ack.ID + "/events"); err != nil {
		return -1, err
	}
	raw, err := d.get(d.base + "/v1/jobs/" + ack.ID)
	if err != nil {
		return -1, err
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return -1, err
	}
	if st.State != service.JobDone || st.ResultBytes == 0 {
		return -1, fmt.Errorf("cell job %s ended %s (%s)", ack.ID, st.State, st.Error)
	}
	if st.CacheHit || ack.Deduped || st.StartedAt == nil {
		return -1, nil
	}
	return float64(st.StartedAt.Sub(st.CreatedAt)) / 1e6, nil
}

// serveIteration is the outcome of one closed-loop request batch.
type serveIteration struct {
	wall    time.Duration
	results []served
	failed  int
	failure string // the first failed request's error
	stats   service.Stats
}

// runServe sends reqs to the fresh daemon d from serveClients clients
// in a closed loop, drains the daemon and checks every response.
func runServe(d *daemon, reqs []serveRequest, ref map[string]string, tr *tracer) (*serveIteration, error) {
	it := &serveIteration{results: make([]served, len(reqs))}
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				from := time.Now()
				it.results[i] = d.do(reqs[i], ref)
				tr.span(tidClient+int32(c), reqs[i].kind, reqs[i].key(), i, from)
			}
		}(c)
	}
	wg.Wait()
	raw, statsErr := d.get(d.base + "/statsz")
	if statsErr == nil {
		statsErr = json.Unmarshal(raw, &it.stats)
	}
	stopErr := d.stop()
	if err := errors.Join(statsErr, stopErr); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if ref != nil {
		if err := checkCached(d, reqs, ref); err != nil {
			// Cell job bodies are only visible here: a mismatch fails
			// every cell request of the iteration.
			for i := range it.results {
				if it.results[i].req.kind == "cell" && it.results[i].ok {
					it.results[i].ok = false
					it.results[i].failText = err.Error()
				}
			}
		}
	}
	for _, r := range it.results {
		if !r.ok {
			it.failed++
			if it.failure == "" {
				it.failure = r.req.key() + ": " + r.failText
			}
		}
	}
	it.wall = time.Since(t0)
	tr.span(tidIteration, "serve", "requests", len(reqs), t0)
	return it, nil
}

// checkCached compares the daemon's persisted cache with the references
// of every distinct result the requests produced: each figure, each
// cell, and for approx requests both the approx figure and the exact
// sweep started behind it.
func checkCached(d *daemon, reqs []serveRequest, ref map[string]string) error {
	want := map[string]bool{}
	for _, r := range reqs {
		want[ref[r.key()]] = true
		if r.kind == "approx" {
			want[ref["figure/"+r.name]] = true
		}
	}
	got, err := d.cachedBodies()
	if err != nil {
		return err
	}
	if len(got) != len(want) {
		return fmt.Errorf("serve: daemon cached %d distinct results, want %d", len(got), len(want))
	}
	for dg := range want {
		if !got[dg] {
			return errors.New("serve: a cached result differs from the reference")
		}
	}
	return nil
}

// serveCounts are the iteration's per-layer service metrics.
func (it *serveIteration) counts() map[string]float64 {
	var fig, cell, apx, wait []float64
	for _, r := range it.results {
		switch r.req.kind {
		case "figure":
			fig = append(fig, r.ms)
		case "cell":
			cell = append(cell, r.ms)
			if r.waitMS >= 0 {
				wait = append(wait, r.waitMS)
			}
		case "approx":
			apx = append(apx, r.ms)
		}
	}
	return map[string]float64{
		"service.simulations":     float64(it.stats.Simulations),
		"service.cache_hit_ratio": it.stats.Cache.HitRatio,
		"service.figure_p50_ms":   percentile(fig, 50),
		"service.cell_p50_ms":     percentile(cell, 50),
		"service.approx_p50_ms":   percentile(apx, 50),
		"service.queue_wait_ms":   percentile(wait, 50),
	}
}

// approxPredictUS times approx.Predict directly over the daemon's
// Figure 10 cells, returning the median in microseconds.
func approxPredictUS(size string, tr *tracer) (float64, error) {
	p := serveParams(size)
	var us []float64
	for rep := 0; rep < 20; rep++ {
		for _, m := range p.Mixes {
			mix := mixNamed(m)
			for _, d := range []config.Density{config.Density16Gb, config.Density24Gb, config.Density32Gb} {
				for _, b := range probeBundles {
					cfg := bundleConfig(p, d, b)
					t0 := time.Now()
					if _, err := approx.Predict(cfg, mix); err != nil {
						return 0, err
					}
					us = append(us, float64(time.Since(t0))/1e3)
					if rep == 0 {
						tr.span(tidDirect, "approx.Predict", m+"/"+d.String()+"/"+b, len(us)-1, t0)
					}
				}
			}
		}
	}
	return median(us), nil
}
