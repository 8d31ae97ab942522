package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-layer shares.
// It decodes only the fields it needs of the profile.proto wire format
// (samples, locations, functions, string table).

// stack is one sampled call stack, leaf first, as function names.
type stack struct {
	funcs  []string
	weight int64 // CPU nanoseconds
}

// decodeProfile parses a gzipped CPU profile into weighted stacks.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		strtab  []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stack{weight: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strtab) {
					st.funcs = append(st.funcs, strtab[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch typ {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, packed (b non-nil) or
// not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// funcPackage returns the import path of a symbol such as
// "refsched/internal/mc.(*Controller).tryIssue".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// leafLayer names the *.self_frac metric a sample's leaf frame counts
// toward ("" for none).
func leafLayer(fn string) string {
	switch pkg := funcPackage(fn); pkg {
	case "refsched/internal/mc":
		return "mc.self_frac"
	case "refsched/internal/dram":
		return "dram.self_frac"
	case "refsched/internal/sim":
		return "sim.self_frac"
	case "refsched/internal/kernel/buddy":
		return "buddy.self_frac"
	case "refsched/internal/cpu":
		return "cpu.self_frac"
	case "refsched/internal/cache":
		return "cache.self_frac"
	case "refsched/internal/workload":
		return "workload.self_frac"
	default:
		if strings.HasPrefix(pkg, "refsched/internal/kernel") {
			return "kernel.self_frac"
		}
	}
	return ""
}

// gcFrame reports whether a frame belongs to the garbage collector.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.markroot"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profileShares accumulates the CPU-profile metrics of a run.
type profileShares struct {
	total int64
	parts map[string]int64
}

func (p *profileShares) add(stacks []stack) {
	if p.parts == nil {
		p.parts = map[string]int64{}
	}
	for _, s := range stacks {
		p.total += s.weight
		if len(s.funcs) == 0 {
			continue
		}
		if l := leafLayer(s.funcs[0]); l != "" {
			p.parts[l] += s.weight
		}
		if strings.HasPrefix(s.funcs[0], "runtime.memclrNoHeapPointers") {
			p.parts["runtime.memclr_frac"] += s.weight
		}
		var build, gc bool
		for _, f := range s.funcs {
			build = build || f == "refsched/internal/core.Build"
			gc = gc || gcFrame(f)
		}
		if build {
			p.parts["core.build_frac"] += s.weight
		}
		if gc {
			p.parts["runtime.gc_frac"] += s.weight
		}
	}
}

// shareNames lists every profile-derived metric, in print order.
var shareNames = []string{
	"mc.self_frac", "dram.self_frac", "sim.self_frac", "core.build_frac",
	"buddy.self_frac", "runtime.memclr_frac", "cpu.self_frac",
	"cache.self_frac", "workload.self_frac", "kernel.self_frac",
	"runtime.gc_frac",
}

// into writes each share as a fraction of all sampled CPU time.
func (p *profileShares) into(vals map[string]float64) {
	for _, n := range shareNames {
		if p.total > 0 {
			vals[n] = float64(p.parts[n]) / float64(p.total)
		} else {
			vals[n] = 0
		}
	}
}
