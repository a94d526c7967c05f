package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuShares splits a runtime/pprof CPU profile two ways:
//
//   - by package: each sample is charged to its innermost frame in a
//     tell/internal/* package, except that the helper packages det,
//     sanitize and metrics are charged to their caller. A sample with a
//     tracer frame anywhere on its stack is the benchmark's own tracing
//     ("bench"); one with no engine frame at all is the Go runtime's
//     own work, mostly GC ("runtime").
//   - by the "role" pprof label the benchmark sets ("unlabelled" when none).
//
// Both maps hold shares of the profile's total CPU time.
func cpuShares(gz []byte) (byPkg, byRole map[string]float64, err error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, nil, err
	}
	byPkg, byRole = map[string]float64{}, map[string]float64{}
	var total float64
	for _, s := range p.samples {
		v := float64(s.value)
		total += v
		byPkg[p.pkgOf(s.locs)] += v
		r := s.labels["role"]
		if r == "" {
			r = "unlabelled"
		}
		byRole[r] += v
	}
	if total == 0 {
		return nil, nil, errors.New("profile has no samples")
	}
	for k := range byPkg {
		byPkg[k] /= total
	}
	for k := range byRole {
		byRole[k] /= total
	}
	return byPkg, byRole, nil
}

const enginePrefix = "tell/internal/"

var helperPkgs = map[string]bool{"det": true, "sanitize": true, "metrics": true}

func (p *profile) pkgOf(locs []uint64) string {
	pkg := ""
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			name := p.funcNames[fn]
			if strings.HasPrefix(name, "main.(*tracer).") {
				return "bench"
			}
			if pkg != "" || !strings.HasPrefix(name, enginePrefix) {
				continue
			}
			rest := name[len(enginePrefix):]
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			if !helperPkgs[rest] {
				pkg = rest
			}
		}
	}
	if pkg == "" {
		return "runtime"
	}
	return pkg
}

type sample struct {
	locs   []uint64 // leaf first
	value  int64    // CPU nanoseconds
	labels map[string]string
}

type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location → function ids, innermost first
	funcNames map[uint64]string
}

// parseProfile decodes the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that cpuShares needs.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var rawSamples [][]byte
	funcName := map[uint64]int64{}
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // sample
			rawSamples = append(rawSamples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for id, n := range funcName {
		p.funcNames[id] = str(n)
	}
	for _, b := range rawSamples {
		var s sample
		var values []int64
		err := fields(b, func(f int, v uint64, b []byte) error {
			switch f {
			case 1:
				if b == nil {
					s.locs = append(s.locs, v)
					return nil
				}
				return packed(b, func(v uint64) { s.locs = append(s.locs, v) })
			case 2:
				if b == nil {
					values = append(values, int64(v))
					return nil
				}
				return packed(b, func(v uint64) { values = append(values, int64(v)) })
			case 3: // label
				var k, sv int64
				if err := fields(b, func(f int, v uint64, _ []byte) error {
					switch f {
					case 1:
						k = int64(v)
					case 2:
						sv = int64(v)
					}
					return nil
				}); err != nil {
					return err
				}
				if s.labels == nil {
					s.labels = map[string]string{}
				}
				s.labels[str(k)] = str(sv)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// CPU profiles carry [samples/count, cpu/nanoseconds].
		if len(values) > 0 {
			s.value = values[len(values)-1]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errProto = errors.New("malformed profile")

// fields calls fn for each field of a protobuf message: v holds varint
// values, b the bytes of length-delimited ones (nil otherwise).
func fields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wt := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
