package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

const modulePath = "github.com/pipeinfer/pipeinfer/"

// cpuBuckets are the cpu_share.* names, in reporting order: the repo's
// layers, then what is not the repo's code.
var cpuBuckets = []string{
	"tensor", "quant", "model", "kvpage", "kvcache", "prefixcache", "batch",
	"transact", "engine", "comm", "serve", "telemetry",
	"go_runtime", "go_net", "other",
}

// layerOf assigns every directory under internal/ to exactly one
// cpu_share bucket. Packages that are part of a layer's job but live
// beside it fold into that layer: the two state machines and the
// backends' stage glue into engine, admission into serve, the
// observation primitives into telemetry. TestEveryInternalPackageMapped
// fails when a new package appears without an entry.
var layerOf = map[string]string{
	"tensor": "tensor", "quant": "quant", "model": "model",
	"kvpage": "kvpage", "kvcache": "kvcache", "prefixcache": "prefixcache",
	"batch": "batch", "transact": "transact",
	"engine": "engine", "core": "engine", "spec": "engine", "backend": "engine",
	"comm":  "comm",
	"serve": "serve", "overload": "serve",
	"telemetry": "telemetry", "metrics": "telemetry", "trace": "telemetry",
	"token": "other", "cost": "other", "oracle": "other", "simnet": "other", "harness": "other",
}

// funcPackage splits a symbol such as
// "github.com/pipeinfer/pipeinfer/internal/comm/tcpcomm.(*Endpoint).Send"
// into its import path: the package ends at the first dot after the
// last slash.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Kinds of frame, by where the time should be charged.
const (
	frameRuntime = "go_runtime" // scheduler, GC, allocation, locks, clock
	frameNet     = "go_net"     // sockets and the system calls under them
	frameLibrary = ""           // other standard library: charged to its caller
)

// bucketOfFunc classifies one symbol. The empty string means "library
// code with no home of its own": the caller's bucket applies.
func bucketOfFunc(fn string) string {
	pkg := funcPackage(fn)
	if rest, ok := strings.CutPrefix(pkg+"/", modulePath); ok {
		if rest, ok = strings.CutPrefix(rest, "internal/"); !ok {
			return "other" // the facade, cmd/ and this harness
		}
		first, _, _ := strings.Cut(rest, "/")
		if b, ok := layerOf[first]; ok {
			return b
		}
		return "other"
	}
	if first, _, _ := strings.Cut(pkg, "/"); pkg == "main" || strings.Contains(first, ".") {
		return "other" // this harness, or a third-party module (there are none today)
	}
	switch {
	case pkg == "internal/runtime/syscall":
		return frameLibrary // the raw syscall stub: charge whoever made the call (net, os, or the runtime)
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/sync" || pkg == "time":
		return frameRuntime
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" || pkg == "syscall" ||
		strings.HasPrefix(pkg, "internal/syscall/") || pkg == "os":
		return frameNet
	}
	return frameLibrary
}

// bucketOfStack charges one sample, given its call stack leaf first:
// flat attribution, except that standard-library helpers (sort, slices,
// math, encoding/binary ...) are charged to the first frame above them
// that has a bucket of its own.
func bucketOfStack(stack []string) string {
	for _, fn := range stack {
		if b := bucketOfFunc(fn); b != frameLibrary {
			return b
		}
	}
	return "other"
}

// cpuShares turns a CPU profile (the gzipped protobuf runtime/pprof
// writes) into the share of samples per bucket; the shares sum to 1.
func cpuShares(profile []byte) (map[string]float64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	return sharesOf(stacks), nil
}

type weightedStack struct {
	funcs  []string // leaf first
	weight int64
}

func sharesOf(stacks []weightedStack) map[string]float64 {
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total int64
	for _, s := range stacks {
		shares[bucketOfStack(s.funcs)] += float64(s.weight)
		total += s.weight
	}
	if total == 0 {
		shares["other"] = 1
		return shares
	}
	for b := range shares {
		shares[b] /= float64(total)
	}
	return shares
}

// --- a reader for the four message types of profile.proto the shares
// need; the module requires nothing outside the standard library, so
// github.com/google/pprof/profile is not available.

// protoFields calls f for every field of one protobuf message.
// Varint fields arrive in v, length-delimited ones in b.
func protoFields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: truncated field %d", num)
			}
			if err := f(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// repeatedVarints reads a repeated integer field that may arrive packed
// (b != nil) or one value at a time.
func repeatedVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// decodeProfile returns every sample's symbolised stack and its last
// value (CPU nanoseconds in a CPU profile).
func decodeProfile(gz []byte) ([]weightedStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost inlined frame first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = protoFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			if err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = repeatedVarints(s.locs, v, b)
				case 2:
					s.vals = repeatedVarints(s.vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]weightedStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ws := weightedStack{weight: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ws.funcs = append(ws.funcs, strs[idx])
				}
			}
		}
		out = append(out, ws)
	}
	return out, nil
}
