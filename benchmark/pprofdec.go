package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small decoder for the gzip-compressed protobuf that runtime/pprof
// writes, so the per-package CPU attribution needs no `go tool pprof`.
// It reads only what the attribution uses: per sample the stack of
// function names (leaf first) and the last value (CPU nanoseconds).

type profSample struct {
	stack []string // function names, leaf first, inlined frames expanded
	value int64
}

var errProto = errors.New("pprof: malformed protobuf")

// protoField reads one field from b and returns its number, wire type,
// varint value or length-delimited payload, and the remaining bytes.
func protoField(b []byte) (num int, wire int, v uint64, payload, rest []byte, err error) {
	key, n := protoVarint(b)
	if n == 0 {
		return 0, 0, 0, nil, nil, errProto
	}
	b = b[n:]
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, n = protoVarint(b)
		if n == 0 {
			return 0, 0, 0, nil, nil, errProto
		}
		return num, wire, v, nil, b[n:], nil
	case 1:
		if len(b) < 8 {
			return 0, 0, 0, nil, nil, errProto
		}
		return num, wire, 0, nil, b[8:], nil
	case 2:
		l, n := protoVarint(b)
		if n == 0 || uint64(len(b)-n) < l {
			return 0, 0, 0, nil, nil, errProto
		}
		return num, wire, 0, b[n : n+int(l)], b[n+int(l):], nil
	case 5:
		if len(b) < 4 {
			return 0, 0, 0, nil, nil, errProto
		}
		return num, wire, 0, nil, b[4:], nil
	}
	return 0, 0, 0, nil, nil, errProto
}

func protoVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(payload) > 0 {
		x, n := protoVarint(payload)
		if n == 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst, nil
}

// decodeProfile parses a pprof CPU profile.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id -> string index
		strs      []string
	)
	for b := raw; len(b) > 0; {
		num, wire, _, payload, rest, err := protoField(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if wire != 2 {
			continue
		}
		switch num {
		case 2: // Sample
			var s rawSample
			for p := payload; len(p) > 0; {
				n, w, v, pl, r, err := protoField(p)
				if err != nil {
					return nil, err
				}
				p = r
				switch n {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, w, v, pl); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = repeatedVarints(s.values, w, v, pl); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for p := payload; len(p) > 0; {
				n, w, v, pl, r, err := protoField(p)
				if err != nil {
					return nil, err
				}
				p = r
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2: // Line
					for q := pl; len(q) > 0; {
						ln, lw, lv, _, lr, err := protoField(q)
						if err != nil {
							return nil, err
						}
						q = lr
						if ln == 1 && lw == 0 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			for p := payload; len(p) > 0; {
				n, w, v, _, r, err := protoField(p)
				if err != nil {
					return nil, err
				}
				p = r
				if w == 0 && n == 1 {
					id = v
				} else if w == 0 && n == 2 {
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// cpuShareKeys are the attribution buckets, in report order. A sample
// belongs to the package of its leaf frame; runtime leaves are split by
// what the stack above them shows (collector, allocator, rest), and
// standard-library leaves outside math count as runtime_other.
var cpuShareKeys = []string{
	"sim", "netem", "quic", "tcpsim", "cc", "leo", "geo", "fleet", "stats", "obs",
	"trace", "measure", "web", "wehe", "pep", "nat", "core", "math",
	"runtime_gc", "runtime_alloc", "runtime_other",
}

const generatorBucket = "generator"

// funcPackage returns the import path of a symbol such as
// "starlinkperf/internal/sim.(*Scheduler).siftDown".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func stackHas(stack []string, names ...string) bool {
	for _, fn := range stack {
		for _, n := range names {
			if strings.HasPrefix(fn, n) {
				return true
			}
		}
	}
	return false
}

// bucketOf classifies one sample.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "runtime_other"
	}
	pkg := funcPackage(stack[0])
	const internal = "starlinkperf/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		name := strings.TrimPrefix(pkg, internal)
		for _, k := range cpuShareKeys {
			if k == name {
				return k
			}
		}
		return "core" // errant and anything new: no campaign runs it today
	case pkg == "main" || pkg == "starlinkperf/benchmark": // the latter under `go test`
		return generatorBucket
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	}
	switch {
	case stackHas(stack, "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.gcMarkTermination", "runtime.sweepone", "runtime.(*sweepLocked).sweep",
		"runtime.wbBufFlush", "runtime.(*mheap).reclaim"):
		return "runtime_gc"
	case stackHas(stack, "runtime.mallocgc", "runtime.growslice", "runtime.makeslice",
		"runtime.newobject", "runtime.makemap", "runtime.mapassign", "runtime.makechan",
		"runtime.newarray", "runtime.concatstring", "runtime.slicebytetostring",
		"runtime.stringtoslicebyte"):
		return "runtime_alloc"
	}
	return "runtime_other"
}

// cpuShares aggregates samples into bucket → share of the program's CPU
// time (samples outside the benchmark's own code), and returns the share
// of all samples spent in the benchmark itself.
func cpuShares(samples []profSample) (shares map[string]float64, generator float64) {
	sums := map[string]int64{}
	var total int64
	for _, s := range samples {
		sums[bucketOf(s.stack)] += s.value
		total += s.value
	}
	shares = map[string]float64{}
	if total == 0 {
		return shares, 0
	}
	program := total - sums[generatorBucket]
	for k, v := range sums {
		if k != generatorBucket && program > 0 {
			shares[k] = float64(v) / float64(program)
		}
	}
	return shares, float64(sums[generatorBucket]) / float64(total)
}
