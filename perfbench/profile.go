package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"path"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// profile.proto) just far enough to fold samples by layer: samples, their
// location stacks, and each location's (possibly inlined) functions.

// pframe is one function of a stack: symbol and source file.
type pframe struct{ name, file string }

type psample struct {
	stack []pframe // leaf first
	value int64    // CPU nanoseconds
}

var errProto = errors.New("malformed profile")

// pbuf is a protobuf wire-format reader.
type pbuf struct {
	data []byte
	pos  int
}

func (b *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if b.pos >= len(b.data) {
			return 0, errProto
		}
		c := b.data[b.pos]
		b.pos++
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errProto
}

// field reads the next key and returns its number, wire type, varint value
// (wire type 0) or payload (wire type 2).
func (b *pbuf) field() (num int, wt int, v uint64, payload []byte, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = b.varint()
	case 1:
		if b.pos+8 > len(b.data) {
			return 0, 0, 0, nil, errProto
		}
		b.pos += 8
	case 2:
		var n uint64
		n, err = b.varint()
		if err == nil {
			if uint64(len(b.data)-b.pos) < n {
				return 0, 0, 0, nil, errProto
			}
			payload = b.data[b.pos : b.pos+int(n)]
			b.pos += int(n)
		}
	case 5:
		if b.pos+4 > len(b.data) {
			return 0, 0, 0, nil, errProto
		}
		b.pos += 4
	default:
		err = errProto
	}
	return num, wt, v, payload, err
}

// uints appends a repeated uint64 field, packed or not.
func uints(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	p := &pbuf{data: payload}
	for p.pos < len(p.data) {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped CPU profile into leaf-first stacks.
func parseProfile(gz []byte) ([]psample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples []rawSample
		strtab  []string
		locs    = map[uint64][]uint64{}  // location id -> function ids, innermost first
		funcs   = map[uint64][2]uint64{} // function id -> (name, file) string indexes
	)
	b := &pbuf{data: raw}
	for b.pos < len(b.data) {
		num, _, _, payload, err := b.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s rawSample
			sb := &pbuf{data: payload}
			for sb.pos < len(sb.data) {
				n, w, v, pl, err := sb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					s.vals, err = uints(s.vals, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			lb := &pbuf{data: payload}
			for lb.pos < len(lb.data) {
				n, _, v, pl, err := lb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					ln := &pbuf{data: pl}
					for ln.pos < len(ln.data) {
						m, _, fv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							fids = append(fids, fv)
						}
					}
				}
			}
			locs[id] = fids
		case 5: // function
			var id, name, file uint64
			fb := &pbuf{data: payload}
			for fb.pos < len(fb.data) {
				n, _, v, _, err := fb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
			}
			funcs[id] = [2]uint64{name, file}
		case 6: // string table
			strtab = append(strtab, string(payload))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	out := make([]psample, 0, len(samples))
	for _, s := range samples {
		var ps psample
		if len(s.vals) > 1 {
			ps.value = int64(s.vals[1])
		} else if len(s.vals) == 1 {
			ps.value = int64(s.vals[0])
		}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				ps.stack = append(ps.stack, pframe{name: str(f[0]), file: str(f[1])})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// hostLayers lists the layers a CPU sample can be charged to, in report
// order; "other" takes every sample no listed layer claims.
var hostLayers = []string{
	"vm.interp", "vm.engine", "trap", "metapool", "hw.physmem", "netload", "other",
}

// layerOf charges one frame of this repository's code to a layer.
func layerOf(f pframe) string {
	pkg := funcPackage(f.name)
	file := path.Base(f.file)
	switch pkg {
	case "sva/internal/vm":
		switch file {
		case "engine.go", "translate.go":
			return "vm.engine"
		case "state.go":
			return "trap"
		}
		return "vm.interp"
	case "sva/internal/svaos":
		return "trap"
	case "sva/internal/metapool", "sva/internal/splay":
		return "metapool"
	case "sva/internal/hw":
		if file == "memory.go" {
			return "hw.physmem"
		}
	case "sva/internal/netload":
		return "netload"
	}
	return "other"
}

// funcPackage extracts the import path from a symbol such as
// "sva/internal/vm.(*VM).step".
func funcPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

func isRepoFrame(f pframe) bool {
	return strings.HasPrefix(f.name, "sva/")
}

func isLockFrame(f pframe) bool {
	switch funcPackage(f.name) {
	case "sync", "internal/sync":
		return true
	}
	return strings.HasPrefix(f.name, "runtime.lock") || strings.HasPrefix(f.name, "runtime.semacquire") ||
		strings.HasPrefix(f.name, "runtime.semrelease") || strings.HasPrefix(f.name, "runtime.futex")
}

func isGCFrame(f pframe) bool {
	n := f.name
	return strings.HasPrefix(n, "runtime.gc") || strings.HasPrefix(n, "runtime.markroot") ||
		strings.HasPrefix(n, "runtime.scanobject") || strings.HasPrefix(n, "runtime.bgsweep") ||
		strings.HasPrefix(n, "runtime.sweepone") || strings.HasPrefix(n, "runtime.bgscavenge")
}

// hostFolding is a CPU profile folded by layer.
type hostFolding struct {
	frac     map[string]float64 // layer -> share of CPU time
	lockFrac float64            // share spent in locks taken by hw.PhysMemory
	gcFrac   float64            // share spent in the garbage collector
}

// foldProfile charges each sample to the innermost frame that belongs to
// this repository (runtime and standard-library frames below it fold into
// their caller's layer); samples with no repository frame, such as GC
// workers, and frames of layers not listed are "other".
func foldProfile(samples []psample) hostFolding {
	h := hostFolding{frac: map[string]float64{}}
	var total float64
	for _, s := range samples {
		v := float64(s.value)
		total += v
		layer, locked := "other", false
		for _, f := range s.stack {
			if isRepoFrame(f) {
				layer = layerOf(f)
				break
			}
			if isLockFrame(f) {
				locked = true
			}
		}
		h.frac[layer] += v
		if locked && layer == "hw.physmem" {
			h.lockFrac += v
		}
		for _, f := range s.stack {
			if isGCFrame(f) {
				h.gcFrac += v
				break
			}
		}
	}
	if total > 0 {
		for k := range h.frac {
			h.frac[k] /= total
		}
		h.lockFrac /= total
		h.gcFrac /= total
	}
	return h
}
