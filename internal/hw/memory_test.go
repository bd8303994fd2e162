package hw

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Address windows the physical-memory fuzzer draws from: low memory, a
// window above the directory's coverage (the overflow map), and the top
// of the address space, where accesses wrap.
const (
	fuzzSpan  = 6 * PageSize
	fuzzLimit = 5*PageSize + 12 // unaligned, so accesses straddle it
)

var fuzzBases = [4]uint64{0, PageSize - 64, physCoverPages * PageSize, ^uint64(0) - fuzzSpan + 1}

// memOp is one decoded fuzz operation on a PhysMemory.
type memOp struct {
	kind int // 0 Load, 1 aligned Load, 2–3 Store, 4 ReadAt, 5 WriteAt, 6 Zero, 7 aligned Store
	addr uint64
	size int    // Load/Store width (may be invalid)
	n    int    // bulk transfer length
	v    uint64 // Store value, WriteAt fill seed
}

// decodeMemOp turns 4 fuzz bytes into an operation: kind in b[0]&7,
// window in b[0]>>3&3, width in b[0]>>5, offset in b[1:3], and value or
// length in b[3].
func decodeMemOp(b []byte, i int) memOp {
	op := memOp{
		kind: int(b[0] & 7),
		addr: fuzzBases[b[0]>>3&3] + uint64(binary.LittleEndian.Uint16(b[1:]))%fuzzSpan,
		size: [8]int{1, 2, 4, 8, 8, 4, 3, 0}[b[0]>>5],
		n:    int(b[3]) * 37, // up to 9435 bytes: three pages
		v:    (uint64(b[3]) + 1) * 0x9E3779B97F4A7C15 * uint64(i+1),
	}
	if (op.kind == 1 || op.kind == 7) && op.size > 0 {
		op.addr &^= uint64(op.size - 1)
	}
	return op
}

// apply runs op on m and returns what it observed: the loaded value or
// the bytes read, and the error.
func (op memOp) apply(m *PhysMemory) (uint64, []byte, error) {
	switch op.kind {
	case 0, 1:
		v, err := m.Load(op.addr, op.size)
		return v, nil, err
	case 2, 3, 7:
		return 0, nil, m.Store(op.addr, op.v, op.size)
	case 4:
		buf := make([]byte, op.n)
		err := m.ReadAt(op.addr, buf)
		return 0, buf, err
	case 5:
		buf := make([]byte, op.n)
		for j := range buf {
			buf[j] = byte(op.v >> (j % 8 * 8))
		}
		return 0, nil, m.WriteAt(op.addr, buf)
	default:
		return 0, nil, m.Zero(op.addr, uint64(op.n))
	}
}

// FuzzPhysMemory applies decoded operation streams to an SMP-mode memory
// (atomic word paths) and a uniprocessor one (plain copies) and requires
// identical values, errors, materialized pages and final contents.  The
// high bit of the first byte drops the Limit.
func FuzzPhysMemory(f *testing.F) {
	f.Add([]byte{0, 0x02, 0x10, 0x00, 0x12, 0x42, 0x10, 0x07, 0x60, 0x42, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var limit uint64 = fuzzLimit
		if data[0]&0x80 != 0 {
			limit = 0
		}
		smp, up := NewPhysMemory(limit), NewPhysMemory(limit)
		smp.EnableSMP(true)
		for i := 1; i+4 <= len(data); i += 4 {
			op := decodeMemOp(data[i:i+4], i/4)
			sv, sb, serr := op.apply(smp)
			uv, ub, uerr := op.apply(up)
			if sv != uv || !bytes.Equal(sb, ub) || !reflect.DeepEqual(serr, uerr) {
				t.Fatalf("op %d %+v: smp (%#x, %v), up (%#x, %v)", i/4, op, sv, serr, uv, uerr)
			}
		}
		if s, u := smp.PagesTouched(), up.PagesTouched(); s != u {
			t.Fatalf("PagesTouched: smp %d, up %d", s, u)
		}
		smp.Limit, up.Limit = 0, 0
		for _, base := range fuzzBases {
			sb, ub := make([]byte, fuzzSpan-1), make([]byte, fuzzSpan-1)
			if err := smp.ReadAt(base, sb); err != nil {
				t.Fatal(err)
			}
			if err := up.ReadAt(base, ub); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb, ub) {
				t.Fatalf("final contents differ in the window at %#x", base)
			}
		}
	})
}

// TestPhysMemorySMPNoTear races writers, byte storers and readers on
// shared words of an SMP-mode memory.  Pattern words are rewritten whole
// (8-byte Store, whole-word WriteAt, a two-word WriteAt) and must never
// read torn.  Mixed words are split into slices, each with one owner
// goroutine: a 4-byte pattern in the low half (4-byte Store, and a
// 4-byte WriteAt that CAS-merges), and counters in the neighbouring bytes
// (two 1-byte lanes, one 2-byte lane).  Each owner reads its slice back
// after every store, so a store a sibling's merge overwrote shows up as
// a value its owner never wrote.
func TestPhysMemorySMPNoTear(t *testing.T) {
	const (
		base    = 0x10000
		words   = 8
		mixBase = base + words*8
		rounds  = 20000
		patA    = uint64(0x0706050403020100)
		patB    = ^patA
	)
	m := NewPhysMemory(0)
	m.EnableSMP(true)
	for w := uint64(0); w < words; w++ {
		if err := m.Store(base+w*8, patA, 8); err != nil {
			t.Fatal(err)
		}
	}
	word := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

	var writers, readers sync.WaitGroup
	var done atomic.Bool
	start := make(chan struct{})
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		done.Store(true)
	}
	writers.Add(1)
	go func() { // whole-word pattern writer
		defer writers.Done()
		<-start
		for r := 0; r < rounds && !done.Load(); r++ {
			p := patA
			if r%2 == 1 {
				p = patB
			}
			for w := uint64(0); w < words; w++ {
				var err error
				switch (r + int(w)) % 3 {
				case 0:
					err = m.Store(base+w*8, p, 8)
				case 1:
					err = m.WriteAt(base+w*8, word(p))
				default:
					err = m.WriteAt(base+w/2*16, append(word(p), word(p)...))
				}
				if err != nil {
					fail("pattern write: %v", err)
					return
				}
			}
		}
	}()
	// The mixed-word slice owners.  Odd rounds of the low-half owner go
	// through WriteAt, the rest through Store.
	for _, sl := range [4]struct {
		off  uint64
		size int
	}{{0, 4}, {4, 1}, {5, 1}, {6, 2}} {
		writers.Add(1)
		go func() {
			defer writers.Done()
			<-start
			mask := sizeMask(sl.size)
			for r := uint64(1); r <= rounds && !done.Load(); r++ {
				v := (r * 0x9E3779B97F4A7C15 >> 17) & mask
				for w := uint64(0); w < words; w++ {
					a := mixBase + w*8 + sl.off
					var err error
					if sl.size == 4 && r%2 == 1 {
						err = m.WriteAt(a, binary.LittleEndian.AppendUint32(nil, uint32(v)))
					} else {
						err = m.Store(a, v, sl.size)
					}
					if err != nil {
						fail("slice +%d store: %v", sl.off, err)
						return
					}
					if got, err := m.Load(a, sl.size); err != nil || got != v {
						fail("mixed word %d slice +%d reads %#x after storing %#x: store lost", w, sl.off, got, v)
						return
					}
				}
			}
		}()
	}
	for rd := 0; rd < 2; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			buf := make([]byte, words*8)
			for ; !done.Load(); runtime.Gosched() {
				for w := uint64(0); w < words; w++ {
					var v uint64
					var err error
					if rd == 0 {
						v, err = m.Load(base+w*8, 8)
					} else {
						err = m.ReadAt(base+w*8, buf[:8])
						v = binary.LittleEndian.Uint64(buf)
					}
					if err != nil || (v != patA && v != patB) {
						fail("pattern word %d read %#x, %v: torn", w, v, err)
						return
					}
				}
				if err := m.ReadAt(base, buf); err != nil {
					fail("span read: %v", err)
					return
				}
				for w := 0; w < words; w++ {
					if v := binary.LittleEndian.Uint64(buf[w*8:]); v != patA && v != patB {
						fail("span read word %d = %#x: torn", w, v)
						return
					}
				}
			}
		}()
	}
	close(start)
	writers.Wait()
	done.Store(true)
	readers.Wait()
}
