package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"refsched/internal/config"
	"refsched/internal/sim"
	"refsched/internal/workload"
)

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceRun executes the cell without any checkpointing.
func referenceRun(t *testing.T, cfg config.System, warmup, measure uint64) []byte {
	t.Helper()
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return reportBytes(t, rep)
}

// codecRoundTrip pushes st through the file format and back.
func codecRoundTrip(t *testing.T, st *SystemState) *SystemState {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()), "mem")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointResumeByteIdentical is the contract test for the whole
// snapshot stack: a run that checkpoints periodically produces the
// byte-identical report of an uncheckpointed run, and resuming from any
// checkpoint — including ones taken mid-quantum and mid-refresh — again
// produces the byte-identical report. The refresh-oblivious baseline,
// the full co-design machine (CFS + refresh-aware scheduling +
// per-bank-sequenced refresh), and a two-channel machine (two
// controllers interleaving events on one engine) are covered.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  config.System
	}{
		{"baseline-allbank-32gb", testConfig(config.Density32Gb, config.RefreshAllBank)},
		{"codesign-perbankseq", func() config.System {
			cfg := testConfig(config.Density8Gb, config.RefreshPerBankSeq)
			cfg.OS.Alloc = config.AllocSoftPartition
			cfg.OS.Scheduler = config.SchedCFS
			cfg.OS.RefreshAware = true
			return cfg
		}()},
		{"multichannel-2ch", func() config.System {
			cfg := testConfig(config.Density8Gb, config.RefreshPerBankRR)
			cfg.Mem.Channels = 2
			return cfg
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			w := cfg.TREFW()
			warmup, measure := w, 2*w
			ref := referenceRun(t, cfg, warmup, measure)

			sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			// Misaligned with both the quantum grid and the refresh
			// cadence, so checkpoints land mid-quantum (and, with
			// enough samples, mid-refresh).
			every := cfg.Timeslice() + cfg.Timeslice()/3 + 7
			// Classify snapshots as they arrive — mid-quantum (a core is
			// executing a task) and mid-refresh (a bank's refresh end
			// lies in the future) — keeping only the first of each and
			// the last, since a whole machine snapshot is large.
			var n int
			var midQuantum, midRefresh, last *SystemState
			rep, err := sys.RunCheckpointed(warmup, measure, every, func(st *SystemState) error {
				n++
				last = st
				cyc := sim.Time(st.Cycle())
				for _, c := range st.Cores {
					if c.TaskID >= 0 && !c.Idle && midQuantum == nil {
						midQuantum = st
					}
				}
				for _, ch := range st.Chans {
					for _, b := range ch.Banks {
						if b.RefUntil > cyc && midRefresh == nil {
							midRefresh = st
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, rep); !bytes.Equal(got, ref) {
				t.Fatalf("checkpointed run diverged from reference:\n%s\nvs\n%s", got, ref)
			}
			if n < 3 {
				t.Fatalf("only %d checkpoints taken", n)
			}
			if midQuantum == nil {
				t.Fatal("no checkpoint caught a core mid-quantum")
			}
			if midRefresh == nil {
				t.Fatal("no checkpoint caught a bank mid-refresh")
			}

			resume := func(snap *SystemState) {
				st := codecRoundTrip(t, snap)
				rsys, err := Restore(st, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rrep, err := rsys.Resume(0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := reportBytes(t, rrep); !bytes.Equal(got, ref) {
					t.Fatalf("resume from checkpoint at cycle %d diverged:\n%s\nvs\n%s",
						snap.Cycle(), got, ref)
				}
			}
			resume(midQuantum)
			resume(midRefresh)
			resume(last)
		})
	}
}

// TestResumeWithFurtherCheckpoints resumes from an early snapshot while
// emitting new checkpoints, then resumes from one of those — the
// preemption pattern refschedd uses (a job may be preempted repeatedly).
func TestResumeWithFurtherCheckpoints(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	w := cfg.TREFW()
	warmup, measure := w, 2*w
	ref := referenceRun(t, cfg, warmup, measure)

	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	every := cfg.Timeslice()*2 + 13
	var first *SystemState
	_, err = sys.RunCheckpointed(warmup, measure, every, func(st *SystemState) error {
		if first == nil {
			first = st
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	rsys, err := Restore(first, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var later *SystemState
	_, err = rsys.Resume(every, func(st *SystemState) error {
		later = st
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if later == nil {
		t.Fatal("resumed run emitted no checkpoints")
	}
	r2, err := Restore(later, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r2.Resume(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, ref) {
		t.Fatalf("twice-resumed run diverged:\n%s\nvs\n%s", got, ref)
	}
}

// TestResumeFromQuietController checkpoints a contended 4-core cell at
// a boundary where its memory controller is quiet: its last issue pass
// rejected every queued request and nothing has changed since, so its
// next wakeup would skip re-planning. The quiet state is derived, not
// checkpointed, so the restored controller re-plans on that wakeup
// instead; the resumed report must still match the uninterrupted run
// byte for byte.
func TestResumeFromQuietController(t *testing.T) {
	cfg := testConfig(config.Density32Gb, config.RefreshAllBank)
	cfg.Cores = 4
	mix := workload.MixFor(workload.Table2()[7], cfg.Cores, 2) // WL-8
	w := cfg.TREFW()
	warmup, measure := w/2, w
	build := func() *System {
		sys, err := Build(cfg, mix, Options{FootprintScale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	rep, err := build().Run(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	ref := reportBytes(t, rep)

	sys := build()
	var quiet *SystemState
	_, err = sys.RunPreemptible(warmup, measure, 997, func(capture func() (*SystemState, error)) error {
		if quiet != nil || !sys.MCs[0].Quiet() {
			return nil
		}
		st, err := capture()
		quiet = st
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if quiet == nil {
		t.Fatal("no checkpoint boundary found the controller quiet")
	}
	rsys, err := Restore(codecRoundTrip(t, quiet), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rsys.MCs[0].Quiet() {
		t.Fatal("restored controller kept a quiet state it cannot have derived")
	}
	rrep, err := rsys.Resume(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rrep); !bytes.Equal(got, ref) {
		t.Fatalf("resume from quiet controller (cycle %d) diverged:\n%s\nvs\n%s", quiet.Cycle(), got, ref)
	}
}

// TestSnapshotRefusals covers the observer refusal path: a system with
// a timeline attached cannot checkpoint, because the recorder's state
// is not serialized.
func TestSnapshotRefusals(t *testing.T) {
	sys, err := Build(testConfig(config.Density8Gb, config.RefreshAllBank), testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AttachTimeline(io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunCheckpointed(0, 1000, 100, func(*SystemState) error { return nil }); err == nil {
		t.Fatal("checkpointing with a timeline attached must fail")
	}
}

func writeTestSnapshot(t *testing.T) (string, []byte) {
	t.Helper()
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var snap *SystemState
	every := cfg.Timeslice()
	_, err = sys.RunCheckpointed(0, 4*every, every, func(st *SystemState) error {
		if snap == nil {
			snap = st
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cell.snap")
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestSnapshotCorruptionRefused proves the codec refuses damaged files
// with typed errors rather than restoring a subtly wrong machine:
// truncation, bit flips, version skew, and wrong magic each produce the
// right error type.
func TestSnapshotCorruptionRefused(t *testing.T) {
	path, data := writeTestSnapshot(t)

	if _, err := ReadSnapshotFile(path); err != nil {
		t.Fatalf("pristine snapshot refused: %v", err)
	}

	rewrite := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var corrupt *CorruptSnapshotError
	var skew *SnapshotVersionError

	// Truncated mid-body.
	rewrite(data[:len(data)/2])
	if _, err := ReadSnapshotFile(path); !errors.As(err, &corrupt) {
		t.Fatalf("truncated: err = %v, want CorruptSnapshotError", err)
	}
	// Truncated mid-header.
	rewrite(data[:10])
	if _, err := ReadSnapshotFile(path); !errors.As(err, &corrupt) {
		t.Fatalf("short header: err = %v, want CorruptSnapshotError", err)
	}
	// Single bit flip in the body.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	rewrite(flipped)
	if _, err := ReadSnapshotFile(path); !errors.As(err, &corrupt) {
		t.Fatalf("bit flip: err = %v, want CorruptSnapshotError", err)
	}
	// Version skew.
	skewed := append([]byte(nil), data...)
	skewed[4]++
	rewrite(skewed)
	if _, err := ReadSnapshotFile(path); !errors.As(err, &skew) {
		t.Fatalf("version skew: err = %v, want SnapshotVersionError", err)
	}
	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	rewrite(bad)
	if _, err := ReadSnapshotFile(path); !errors.As(err, &corrupt) {
		t.Fatalf("bad magic: err = %v, want CorruptSnapshotError", err)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the decoder: it must
// return an error or a state, never panic. The corpus seeds a valid
// snapshot so mutations explore the gob body, not just the header.
func FuzzDecodeSnapshot(f *testing.F) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	var snap *SystemState
	every := cfg.Timeslice()
	if _, err := sys.RunCheckpointed(0, 2*every, every, func(st *SystemState) error {
		if snap == nil {
			snap = st
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("RSNP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshot(bytes.NewReader(data), "fuzz")
		if err == nil && st == nil {
			t.Fatal("nil state with nil error")
		}
	})
}
