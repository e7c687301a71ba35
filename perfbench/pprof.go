package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, enough to charge each sample to a layer. Only the standard
// library is available, so the few message types needed are decoded by
// hand.

type pprofProfile struct {
	sampleTypes []string // value names, e.g. "cpu", "alloc_space"
	samples     []pprofSample
	locations   map[uint64][]pprofFrame // innermost frame first
}

type pprofSample struct {
	locations []uint64 // leaf first
	values    []int64
}

type pprofFrame struct{ function, file string }

// protoFields walks the fields of one protobuf message. For varint and
// fixed-width fields fn gets the value in v; for length-delimited fields
// it gets the payload in data.
func protoFields(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated integer field in either encoding:
// packed (wire type 2) or one varint per field.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func parsePprof(gz []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	var (
		strs      []string
		typeIdx   []uint64
		samples   []pprofSample
		locFuncs  = map[uint64][]uint64{}  // location id -> function ids, innermost first
		functions = map[uint64][2]uint64{} // function id -> (name, filename) string indices
	)
	err = protoFields(raw, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return protoFields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s pprofSample
			err := protoFields(data, func(num, wire int, v uint64, d []byte) error {
				var err error
				switch num {
				case 1:
					s.locations, err = appendVarints(s.locations, wire, v, d)
				case 2:
					var vals []uint64
					vals, err = appendVarints(nil, wire, v, d)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num, _ int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var fnID uint64
					if err := protoFields(d, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fnID = v
						}
						return nil
					}); err != nil {
						return err
					}
					fns = append(fns, fnID)
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name, file uint64
			err := protoFields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			functions[id] = [2]uint64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &pprofProfile{samples: samples, locations: make(map[uint64][]pprofFrame, len(locFuncs))}
	for _, t := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(t))
	}
	for id, fns := range locFuncs {
		frames := make([]pprofFrame, 0, len(fns))
		for _, fnID := range fns {
			f := functions[fnID]
			frames = append(frames, pprofFrame{function: str(f[0]), file: str(f[1])})
		}
		p.locations[id] = frames
	}
	return p, nil
}

// byLayer sums the named sample value per layer. Each sample is charged
// to its innermost frame inside module evm, so runtime work such as
// mallocgc counts against the layer that called it; samples with no such
// frame go to "runtime".
func (p *pprofProfile) byLayer(valueType string) (map[string]int64, error) {
	idx := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("pprof: no %q values in profile (have %v)", valueType, p.sampleTypes)
	}
	locLayer := make(map[uint64]string, len(p.locations))
	for id, frames := range p.locations {
		for _, f := range frames {
			if l, ok := frameLayer(f.function, f.file); ok {
				locLayer[id] = l
				break
			}
		}
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if idx >= len(s.values) {
			continue
		}
		layer := "runtime"
		for _, loc := range s.locations {
			if l, ok := locLayer[loc]; ok {
				layer = l
				break
			}
		}
		out[layer] += s.values[idx]
	}
	return out, nil
}

// sampleCount is the number of profile samples, summed over the "samples"
// value of a CPU profile.
func (p *pprofProfile) sampleCount() int64 {
	counts, err := p.byLayer("samples")
	if err != nil {
		return 0
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	return n
}
