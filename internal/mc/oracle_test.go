package mc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/refresh"
	"refsched/internal/sim"
)

// The differential oracle for the quiet-state skip in tryIssue: the
// same randomized request stream runs through two identical
// controllers. The oracle's dispatcher marks its controller dirty
// before every try-issue event, so it re-plans the queue on every
// wakeup, exactly as the controller did before the skip existed. Every
// observable output must match.

// oracleCase is one controller configuration the oracle covers.
type oracleCase struct {
	name    string
	density config.Density
	policy  config.RefreshPolicy
	mutate  func(*config.MemConfig)
}

func oracleCases() []oracleCase {
	keep := func(*config.MemConfig) {}
	salp := func(m *config.MemConfig) { m.SubarraysPerBank = 8 }
	shallow := func(m *config.MemConfig) {
		m.ReadQueue, m.WriteQueue = 16, 16
		m.WriteLowWater, m.WriteHighWater = 4, 12
	}
	cases := []oracleCase{}
	for _, p := range []config.RefreshPolicy{
		config.RefreshNone, config.RefreshAllBank, config.RefreshPerBankRR,
		config.RefreshPerBankSeq, config.RefreshOOOPerBank, config.RefreshFGR2x,
		config.RefreshFGR4x, config.RefreshAdaptive, config.RefreshElastic,
		config.RefreshPausing, config.RefreshRAIDR,
	} {
		cases = append(cases, oracleCase{string(p), config.Density32Gb, p, keep})
	}
	return append(cases,
		oracleCase{"perbanksa", config.Density32Gb, config.RefreshPerBankSA, salp},
		oracleCase{"allbank-salp", config.Density16Gb, config.RefreshAllBank, salp},
		oracleCase{"fcfs-allbank", config.Density32Gb, config.RefreshAllBank,
			func(m *config.MemConfig) { m.FCFS = true }},
		oracleCase{"fcfs-pausing", config.Density32Gb, config.RefreshPausing,
			func(m *config.MemConfig) { m.FCFS = true }},
		oracleCase{"closedpage-perbank", config.Density8Gb, config.RefreshPerBankRR,
			func(m *config.MemConfig) { m.ClosedPage = true }},
		oracleCase{"watermarks-perbankseq", config.Density32Gb, config.RefreshPerBankSeq, shallow},
		oracleCase{"watermarks-pausing", config.Density32Gb, config.RefreshPausing, shallow},
	)
}

// completion is one completion event as the system dispatcher sees it.
type completion struct {
	at sim.Time
	p  sim.Payload
}

// oracleRig is one controller under a recording dispatcher.
type oracleRig struct {
	eng  *sim.Engine
	ch   *dram.Channel
	mc   *Controller
	reqs []*Request
	done []completion
}

func newOracleRig(t *testing.T, cfg config.System, pol config.RefreshPolicy, replanAlways bool) *oracleRig {
	t.Helper()
	tm := dram.TimingFrom(&cfg)
	eng := sim.NewEngine()
	ch := dram.NewChannel(0, cfg.Mem, &tm)
	geo := refresh.Geometry{Ranks: cfg.Mem.Ranks(), BanksPerRank: cfg.Mem.BanksPerRank,
		Subarrays: ch.Bank(0).Subarrays(), Timing: &tm}
	p, err := refresh.New(pol, geo)
	if err != nil {
		t.Fatal(err)
	}
	r := &oracleRig{eng: eng, ch: ch, mc: New(eng, ch, cfg.Mem, p)}
	eng.SetExec(func(pl sim.Payload) {
		switch pl.Kind {
		case sim.KindMCComplete:
			r.done = append(r.done, completion{eng.Now(), pl})
		case sim.KindMCTryIssue:
			if replanAlways {
				r.mc.dirty = true
			}
			r.mc.Exec(pl)
		default:
			r.mc.Exec(pl)
		}
	})
	return r
}

// arrival is one generated request: submitted at at, resubmitted by the
// controller's waiter list when its queue is full.
type arrival struct {
	at    sim.Time
	coord dram.Coord
	write bool
}

// genStream draws a bursty stream with tunable intensity and row
// locality over a few banks, so queues fill, row hits bypass older
// requests, writes cross the drain watermarks and refreshes collide
// with queued demand.
func genStream(rng *rand.Rand, m config.MemConfig, n int) []arrival {
	hot := 1 + rng.Intn(m.BanksPerRank)
	rows := 2 + rng.Intn(6)
	writeFrac := 0.1 + 0.4*rng.Float64()
	gap := 2 + rng.Intn(60)
	out := make([]arrival, n)
	var t sim.Time
	burst := 0
	for i := range out {
		switch {
		case burst > 0:
			burst-- // same-cycle burst
		case rng.Intn(16) == 0:
			burst = rng.Intn(32)
		case rng.Intn(8) == 0:
			t += sim.Time(rng.Intn(3000)) // idle gap
		default:
			t += sim.Time(rng.Intn(gap))
		}
		out[i] = arrival{
			at: t,
			coord: dram.Coord{Rank: rng.Intn(m.Ranks()), Bank: rng.Intn(hot),
				Row: uint64(rng.Intn(rows))},
			write: rng.Float64() < writeFrac,
		}
	}
	return out
}

// drive submits the stream and runs until tail cycles past the last
// arrival.
func (r *oracleRig) drive(stream []arrival, tail sim.Time) {
	for i, a := range stream {
		r.eng.RunUntil(a.at)
		req := &Request{Addr: uint64(i), Coord: a.coord, TaskID: i % 4}
		r.reqs = append(r.reqs, req)
		if a.write {
			if !r.mc.SubmitWrite(req) {
				r.mc.WhenWriteSpace(req)
			}
			continue
		}
		req.Owner = Owner{Valid: true, Core: i % 4, Miss: uint64(i), Epoch: 1}
		if !r.mc.SubmitRead(req) {
			r.mc.WhenReadSpace(req)
		}
	}
	r.eng.RunUntil(stream[len(stream)-1].at + tail)
}

// withoutEvals zeroes the one counter the oracle is meant to differ on.
func withoutEvals(st ControllerState) ControllerState {
	st.Stats.IssueEvals = 0
	return st
}

func compareRigs(t *testing.T, got, want *oracleRig) {
	t.Helper()
	if len(got.reqs) != len(want.reqs) {
		t.Fatalf("%d requests vs oracle's %d", len(got.reqs), len(want.reqs))
	}
	for i, g := range got.reqs {
		w := want.reqs[i]
		if g.IssueAt != w.IssueAt || g.FinishAt != w.FinishAt ||
			g.RefreshStalled != w.RefreshStalled || g.bypasses != w.bypasses {
			t.Fatalf("request %d: issue %d finish %d stalled %v bypasses %d; oracle: issue %d finish %d stalled %v bypasses %d",
				i, g.IssueAt, g.FinishAt, g.RefreshStalled, g.bypasses,
				w.IssueAt, w.FinishAt, w.RefreshStalled, w.bypasses)
		}
	}
	if !reflect.DeepEqual(got.done, want.done) {
		t.Fatalf("completion sequences differ (%d vs oracle's %d events)", len(got.done), len(want.done))
	}
	if g, w := withoutEvals(got.mc.State()), withoutEvals(want.mc.State()); !reflect.DeepEqual(g, w) {
		t.Fatalf("controller state differs:\n%+v\noracle:\n%+v", g.Stats, w.Stats)
	}
	if g, w := got.ch.State(), want.ch.State(); !reflect.DeepEqual(g, w) {
		t.Fatalf("channel state (bank timing and stats, bus) differs:\n%+v\noracle:\n%+v", g, w)
	}
	if got.eng.Executed != want.eng.Executed {
		t.Fatalf("%d events executed, oracle %d", got.eng.Executed, want.eng.Executed)
	}
}

// TestQuietSkipMatchesReplanOracle checks that skipping re-plans on
// quiet wakeups changes nothing observable: per-request issue/finish
// times, refresh stalls and bypass counts, the completion event
// sequence, controller and policy stats, per-bank stats and the event
// count all match a controller that re-plans on every wakeup.
func TestQuietSkipMatchesReplanOracle(t *testing.T) {
	const seeds, n = 4, 1000
	var seen Stats
	bypassed := false
	for _, tc := range oracleCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var wakeups, evals uint64
			for seed := int64(1); seed <= seeds; seed++ {
				cfg := config.Default(tc.density, 64)
				tc.mutate(&cfg.Mem)
				stream := genStream(rand.New(rand.NewSource(seed)), cfg.Mem, n)
				tail := sim.Time(4 * dram.TimingFrom(&cfg).TREFIab)

				got := newOracleRig(t, cfg, tc.policy, false)
				want := newOracleRig(t, cfg, tc.policy, true)
				got.drive(stream, tail)
				want.drive(stream, tail)
				t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { compareRigs(t, got, want) })

				if ws := want.mc.Stats; ws.IssueEvals != ws.IssueWakeups {
					t.Fatalf("oracle skipped: %d evals for %d wakeups", ws.IssueEvals, ws.IssueWakeups)
				}
				st := got.mc.Stats
				wakeups += st.IssueWakeups
				evals += st.IssueEvals
				seen.RefreshStalledReads += st.RefreshStalledReads
				seen.RefreshPauses += st.RefreshPauses
				seen.WriteDrains += st.WriteDrains
				seen.QueueFullReadStalls += st.QueueFullReadStalls
				seen.QueueFullWriteStalls += st.QueueFullWriteStalls
				for _, r := range got.reqs {
					bypassed = bypassed || r.bypasses >= maxBypasses
				}
			}
			pausing := tc.policy == config.RefreshPausing
			if pausing && evals != wakeups {
				t.Fatalf("pausing policy skipped re-plans: %d evals for %d wakeups", evals, wakeups)
			}
			if !pausing && evals >= wakeups {
				t.Fatalf("skip never engaged: %d evals for %d wakeups", evals, wakeups)
			}
		})
	}
	// The streams must reach every decision path the skip could disturb.
	if seen.RefreshStalledReads == 0 || seen.RefreshPauses == 0 || seen.WriteDrains == 0 ||
		seen.QueueFullReadStalls == 0 || seen.QueueFullWriteStalls == 0 || !bypassed {
		t.Fatalf("streams missed a decision path: %+v, bypass cap reached %v", seen, bypassed)
	}
}
