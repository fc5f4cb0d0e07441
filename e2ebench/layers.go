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

// layerOf maps every package under internal/ (path relative to
// itsbed/internal/) to the layer its CPU and allocations are charged
// to. TestLayerMapCoversInternal keeps it complete.
var layerOf = map[string]string{
	"vision":             "vision",
	"perception":         "perception",
	"edge":               "perception",
	"radio":              "radio",
	"its/geonet":         "geonet",
	"its/btp":            "geonet",
	"its/facilities/ca":  "facilities",
	"its/facilities/den": "facilities",
	"its/facilities/cp":  "facilities",
	"its/facilities/ldm": "ldm",
	"its/messages":       "codec",
	"asn1per":            "codec",
	"stack":              "stack",
	"sim":                "sim",
	"vehicle":            "vehicle",
	"control":            "vehicle",
	"physics":            "vehicle",
	"track":              "vehicle",
	"sensors":            "vehicle",
	"geo":                "vehicle",
	"world":              "vehicle",
	"units":              "core",
	"core":               "core",
	"trace":              "core",
	"clock":              "core",
	"faults":             "core",
	"campaign":           "campaign",
	"experiments":        "campaign",
	"stats":              "campaign",
	"loadgen":            "campaign",
	"perf":               "campaign",
	"openc2x":            "openc2x",
	"metrics":            "obs",
	"tracing":            "obs",
	"flight":             "obs",
}

// Layers lists every layer in report order. "gc" takes runtime work
// with no internal frame on the stack, "http" net/http and net frames
// with no internal frame above them, and "other" the remainder: the
// benchmark's own code and the standard library it calls directly.
var Layers = []string{
	"vision", "perception", "radio", "geonet", "facilities", "ldm", "codec",
	"stack", "sim", "vehicle", "core", "campaign", "openc2x", "obs",
	"gc", "http", "other",
}

const internalPrefix = "itsbed/internal/"

// funcPackage returns the import path of a symbol name such as
// "itsbed/internal/radio.(*Medium).evaluate".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// internalLayer maps a function name to its layer when it belongs to
// a package under internal/.
func internalLayer(name string) (string, bool) {
	if !strings.HasPrefix(name, internalPrefix) {
		return "", false
	}
	l, ok := layerOf[strings.TrimPrefix(funcPackage(name), internalPrefix)]
	if !ok {
		// A package the map does not know still counts as internal;
		// the layer-map test keeps this from happening.
		return "other", true
	}
	return l, true
}

// isRuntime reports whether a frame is Go runtime machinery.
func isRuntime(name string) bool {
	p := funcPackage(name)
	return p == "runtime" || strings.HasPrefix(p, "runtime/internal") ||
		strings.HasPrefix(p, "internal/runtime") || p == "internal/sync" ||
		p == "sync/atomic" || p == "sync" || p == "internal/poll" || p == "syscall"
}

// isNet reports whether a frame belongs to net/http or net.
func isNet(name string) bool {
	p := funcPackage(name)
	return p == "net" || strings.HasPrefix(p, "net/")
}

// classify charges one stack (innermost frame first) to a layer: the
// innermost internal frame wins; without one, net frames make it
// http, an all-runtime stack is gc, and anything else is other.
func classify(stack []string, cpu bool) string {
	for _, f := range stack {
		if l, ok := internalLayer(f); ok {
			return l
		}
	}
	allRuntime := true
	for _, f := range stack {
		if isNet(f) {
			return "http"
		}
		if !isRuntime(f) {
			allRuntime = false
		}
	}
	if allRuntime && cpu {
		return "gc"
	}
	return "other"
}

// profile is the subset of a pprof profile the fold needs.
type profile struct {
	sampleTypes []string
	samples     []profSample
}

type profSample struct {
	stack  []string // innermost frame first, inlined frames expanded
	values []int64
}

// parseProfile decodes a (possibly gzipped) pprof protobuf without
// any dependency beyond the standard library.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: gzip: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeIdx   []int64
		raws      []rawSample
		locLines  = map[uint64][]uint64{} // location → function ids, innermost first
		funcNames = map[uint64]int64{}    // function → string index
	)
	err := eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, bb)
				case 2:
					for _, x := range appendVarints(nil, w, v, bb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(bb, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for _, r := range raws {
		s := profSample{values: r.values}
		for _, loc := range r.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
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

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with the field
// number, wire type and either the varint value or the bytes payload.
func eachField(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// foldByLayer sums one sample value (by sample-type name) per layer
// and returns the per-layer sums and the profile total.
func foldByLayer(p *profile, sampleType string, cpu bool) (map[string]int64, int64, error) {
	idx := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, 0, fmt.Errorf("profile: no %q sample type in %v", sampleType, p.sampleTypes)
	}
	out := make(map[string]int64, len(Layers))
	var total int64
	for _, s := range p.samples {
		if idx >= len(s.values) {
			continue
		}
		v := s.values[idx]
		out[classify(s.stack, cpu)] += v
		total += v
	}
	return out, total, nil
}
