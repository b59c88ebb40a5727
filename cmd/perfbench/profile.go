package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the cost owners a CPU profile is split into: the
// simulator's packages, the math/rand state behind sim.Rand, the
// garbage collector, and everything else.
var layers = []string{"sim", "rng", "netsim", "tfrcsim", "core", "tcp", "cc", "traffic", "exp", "stats", "gc", "other"}

// layerPkgs maps package paths to layers. The worker pool the grid
// runner drives (internal/sweep) is charged to exp.
var layerPkgs = map[string]string{
	"tfrc/internal/sim":     "sim",
	"tfrc/internal/netsim":  "netsim",
	"tfrc/internal/tfrcsim": "tfrcsim",
	"tfrc/internal/core":    "core",
	"tfrc/internal/tcp":     "tcp",
	"tfrc/internal/cc":      "cc",
	"tfrc/internal/traffic": "traffic",
	"tfrc/internal/exp":     "exp",
	"tfrc/internal/sweep":   "exp",
	"tfrc/internal/stats":   "stats",
}

// gcFuncs are runtime functions whose presence anywhere on a stack
// marks the sample as garbage-collector work: background marking,
// mark assists, sweeping, scavenging and write-barrier flushes.
var gcFuncs = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.gcDrain",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.gcStart",
	"runtime.gcMarkDone",
	"runtime.gcMarkTermination",
	"runtime.bgsweep",
	"runtime.sweepone",
	"runtime.deductSweepCredit",
	"runtime.bgscavenge",
	"runtime.wbBufFlush",
}

// layerOf charges one sample, given its frames leaf first:
//   - to gc if any frame is collector work;
//   - else to the innermost frame in a simulator package, except that
//     math/rand frames between the leaf and that frame make it rng;
//   - else to other.
func layerOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFuncs {
			if f == g || strings.HasPrefix(f, g+".") {
				return "gc"
			}
		}
	}
	sawRand := false
	for _, f := range frames {
		pkg := funcPackage(f)
		if pkg == "math/rand" || pkg == "math/rand/v2" {
			sawRand = true
			continue
		}
		if l, ok := layerPkgs[pkg]; ok {
			if sawRand {
				return "rng"
			}
			return l
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol name as pprof prints
// it: "tfrc/internal/sim.(*Scheduler).calInsert" → "tfrc/internal/sim".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// sample is one decoded profile sample: its frames leaf first, with
// inlined calls expanded, and its CPU nanoseconds.
type sample struct {
	frames []string
	ns     int64
}

// parseCPUProfile decodes a gzipped pprof CPU profile as written by
// runtime/pprof. It reads only what attribution needs: samples,
// locations with their (inlined) lines, functions and strings.
func parseCPUProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
		types     []uint64 // sample value types, as string indices
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ uint64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = v
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, typ)
		case 2: // sample
			var s rawSample
			if err := eachField(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, pb)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, pb); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name uint64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cpuIdx := -1
	for i, t := range types {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}

	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		sm := sample{ns: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				name := "?"
				if i := funcNames[fn]; i < uint64(len(strs)) {
					name = strs[i]
				}
				sm.frames = append(sm.frames, name)
			}
		}
		out = append(out, sm)
	}
	return out, nil
}

// layerNs sums the samples' CPU nanoseconds by layer.
func layerNs(samples []sample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		out[layerOf(s.frames)] += s.ns
	}
	return out
}

// eachField walks the protobuf fields of msg, passing varint values as
// v and length-delimited payloads as b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends one repeated-varint field occurrence, packed
// (b holds the varints) or not (v is the value).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
