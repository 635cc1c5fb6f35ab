package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// The CPU profile of the traced sweep labels every System.Run call
// (profileLabel=profileRun). selfByPackage decodes the profile's
// protocol-buffer encoding, keeps only the labelled samples, and charges
// each sample to the package of its innermost frame. Only the standard
// library is available, so this file carries the small decoder the
// profile.proto fields below need.
const (
	profileLabel = "layer"
	profileRun   = "sim.run"
)

// simPackages are the simulator layers reported by name; every other
// repository package, and code outside it, counts as "other". The Go
// runtime, including maps, allocation and garbage-collection assists, and
// package sync count as "runtime".
var simPackages = []string{"event", "cache", "memctrl", "device", "cpu", "stats"}

// pbField is one decoded protocol-buffer field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint and fixed values
	b    []byte // length-delimited payload
}

var errProto = errors.New("perfbench: malformed profile")

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// fields splits one message into its fields.
func fields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n = uvarint(b); n == 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := uvarint(b)
		if n == 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// profSample is one sample: its leaf location, count, and labels.
type profSample struct {
	leaf   uint64
	count  int64
	labels map[int64]int64 // key string index -> value string index
}

// selfByPackage returns the labelled samples' self time shares by
// package (simPackages, "runtime", "other") and the number of samples
// they are shares of; with no labelled samples every share is 0.
func selfByPackage(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	top, err := fields(raw)
	if err != nil {
		return nil, 0, err
	}
	var (
		strs     []string
		samples  []profSample
		locFunc  = make(map[uint64]uint64) // location -> innermost function
		funcName = make(map[uint64]int64)  // function -> name string index
	)
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			s, err := decodeSample(f.b)
			if err != nil {
				return nil, 0, err
			}
			samples = append(samples, s)
		case 4: // Location: id=1, line=4 (Line: function_id=1)
			fs, err := fields(f.b)
			if err != nil {
				return nil, 0, err
			}
			var id, fn uint64
			seenLine := false
			for _, lf := range fs {
				switch {
				case lf.num == 1:
					id = lf.v
				case lf.num == 4 && !seenLine: // the first line is the innermost inlined frame
					seenLine = true
					ls, err := fields(lf.b)
					if err != nil {
						return nil, 0, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fn = l.v
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function: id=1, name=2
			fs, err := fields(f.b)
			if err != nil {
				return nil, 0, err
			}
			var id uint64
			var name int64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	shares := make(map[string]float64)
	var total int64
	for _, s := range samples {
		labelled := false
		for k, v := range s.labels {
			if str(k) == profileLabel && str(v) == profileRun {
				labelled = true
			}
		}
		if !labelled {
			continue
		}
		total += s.count
		shares[packageOf(str(funcName[locFunc[s.leaf]]))] += float64(s.count)
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, total, nil
}

// decodeSample reads Sample: location_id=1, value=2, label=3 (key=1, str=2).
func decodeSample(b []byte) (profSample, error) {
	fs, err := fields(b)
	if err != nil {
		return profSample{}, err
	}
	s := profSample{labels: make(map[int64]int64)}
	for _, f := range fs {
		switch f.num {
		case 1:
			ids, err := f.varints()
			if err != nil {
				return s, err
			}
			if len(ids) > 0 && s.leaf == 0 {
				s.leaf = ids[0]
			}
		case 2:
			vs, err := f.varints()
			if err != nil {
				return s, err
			}
			if len(vs) > 0 && s.count == 0 {
				s.count = int64(vs[0])
			}
		case 3:
			ls, err := fields(f.b)
			if err != nil {
				return s, err
			}
			var k, v int64
			for _, l := range ls {
				switch l.num {
				case 1:
					k = int64(l.v)
				case 2:
					v = int64(l.v)
				}
			}
			s.labels[k] = v
		}
	}
	return s, nil
}

// packageOf names the layer a function belongs to.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "rcnvm/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, p := range simPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	}
	pkg, _, _ := strings.Cut(fn, ".")
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/") ||
		pkg == "sync" || strings.HasPrefix(pkg, "sync/") {
		return "runtime"
	}
	return "other"
}
