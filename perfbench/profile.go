package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile records a runtime/pprof CPU profile of fn and returns the CPU
// nanoseconds attributed to each layer (see layerOfStack).
func cpuProfile(fn func() error) (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, ferr
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	layers := make(map[string]int64)
	for _, s := range samples {
		layers[layerOfStack(s.stack)] += s.ns
	}
	return layers, nil
}

// cpuShare is the fraction of all profiled CPU that went to layer.
func cpuShare(layers map[string]int64, layer string) float64 {
	var total int64
	for _, ns := range layers {
		total += ns
	}
	return ratio(float64(layers[layer]), float64(total))
}

// packageOf extracts the import path from a symbol name such as
// "clnlr/internal/radio.(*Medium).arrivalEnd" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfStack attributes one sample (stack leaf first). Self time goes to
// the package of the leaf frame, with these exceptions decided by the
// callers: the runtime's copy, clear and compare helpers and asynchronous
// preemption count as the code that called them; a system call belongs to
// whoever issued it (HTTP sockets, the cache's files); the observers
// (flight-recorder sampler, journey recorder, counter fold) call into MAC
// and routing accessors, so any stack through them is observer time; and
// report encoding (BuildReport, WriteJSON, encoding/json) is its own
// bucket. Other runtime leaves (GC, allocation, scheduling) stay runtime
// wherever they were triggered.
func layerOfStack(stack []string) string {
	for len(stack) > 1 && runtimeHelper[stack[0]] {
		stack = stack[1:]
	}
	if len(stack) == 0 {
		return "other"
	}
	leaf := packageOf(stack[0])
	if leaf == "syscall" || leaf == "internal/runtime/syscall" {
		for _, fn := range stack[1:] {
			switch pkg := packageOf(fn); {
			case pkg == "syscall", pkg == "internal/poll", pkg == "os", pkg == "io", pkg == "io/fs",
				pkg == "path/filepath", pkg == "bufio":
			case isRuntime(pkg): // the scheduler's own polling and sleeping
				return "runtime"
			default:
				return layerOfPackage(pkg)
			}
		}
		return "other"
	}
	if isRuntime(leaf) {
		return "runtime"
	}
	for _, fn := range stack {
		if pkg := packageOf(fn); pkg == "encoding/json" || fn == "clnlr/internal/sim.BuildReport" ||
			(pkg == "clnlr/internal/metrics" && strings.Contains(fn, "RunReport")) {
			return "encode"
		}
	}
	for _, fn := range stack {
		switch pkg := packageOf(fn); {
		case pkg == "clnlr/internal/journey", pkg == "clnlr/internal/metrics", pkg == "clnlr/internal/trace",
			strings.HasPrefix(fn, "clnlr/internal/sim.(*sampler)"),
			strings.HasPrefix(fn, "clnlr/internal/sim.(*Engine).foldCounters"):
			return "observers"
		}
	}
	return layerOfPackage(leaf)
}

// runtimeHelper lists runtime leaves that do the caller's own work: block
// copies and clears the compiler emits for struct and slice assignments,
// comparisons, and the preemption stub a busy loop is interrupted in.
var runtimeHelper = map[string]bool{
	"runtime.memmove": true, "runtime.duffcopy": true, "runtime.duffzero": true,
	"runtime.memclrNoHeapPointers": true, "runtime.memequal": true, "runtime.memequal64": true,
	"runtime.cmpstring": true, "internal/bytealg.Compare": true, "internal/bytealg.IndexByteString": true,
	"runtime.asyncPreempt": true,
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func layerOfPackage(pkg string) string {
	switch {
	case pkg == "clnlr/internal/radio":
		return "radio"
	case pkg == "clnlr/internal/mac":
		return "mac"
	case pkg == "clnlr/internal/routing" || strings.HasPrefix(pkg, "clnlr/internal/routing/") ||
		pkg == "clnlr/internal/core":
		return "routing"
	case pkg == "clnlr/internal/des":
		return "des"
	case pkg == "clnlr/internal/experiments":
		return "experiments"
	case pkg == "clnlr/internal/serve" || strings.HasPrefix(pkg, "clnlr/internal/serve/"):
		return "serve"
	case strings.HasPrefix(pkg, "clnlr/internal/"):
		// The engine and the stack pieces it wires together: node, traffic,
		// topology, mobility, faults, packets and pools, RNG, geometry.
		return "sim"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" || pkg == "internal/poll" ||
		pkg == "mime" || strings.HasPrefix(pkg, "vendor/golang.org/x/net"):
		return "http"
	}
	return "other"
}

// cpuSample is one profile sample: CPU nanoseconds and the symbolised
// stack, leaf first (inlined frames expanded).
type cpuSample struct {
	ns    int64
	stack []string
}

// parseCPUProfile decodes the gzipped profile.proto a runtime/pprof CPU
// profile is written as — just the fields attribution needs (samples,
// locations, functions, string table), with the standard library alone.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
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
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName    = map[uint64]uint64{}   // function id → string index
		strs        []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
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
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpuIdx := -1
	for i, si := range sampleTypes {
		if si < uint64(len(strs)) && strs[si] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	name := func(fid uint64) string {
		if si, ok := funcName[fid]; ok && si < uint64(len(strs)) {
			return strs[si]
		}
		return "?"
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			continue
		}
		cs := cpuSample{ns: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				cs.stack = append(cs.stack, name(fid))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either as a
// single value (data nil) or packed (data holds the varints).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
