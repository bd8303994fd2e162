// Package hw simulates the hardware substrate beneath the Secure Virtual
// Machine: physical memory, processor state (integer + floating point),
// a page-table MMU, an interrupt controller, a timer, and simple devices
// (console, block device, loopback NIC).
//
// The SVA paper runs on a real Pentium III; this package is the synthetic
// equivalent (see DESIGN.md §2).  All privileged state is reachable only
// through these APIs, which internal/svaos wraps as the SVA-OS operations —
// so the guest kernel manipulates hardware exactly the way the paper
// prescribes: through the virtual instruction set, never directly.
//
// SMP: one Machine may be driven by several virtual CPUs (goroutines).
// Physical memory reaches its pages through a lock-free two-level atomic
// directory.  After EnableSMP every access to page *contents* is a
// sync/atomic operation on the page's 8-byte words, with the guarantee
// x86 gives: a naturally aligned access of at most 8 bytes is
// single-copy atomic, and a wider or unaligned transfer is atomic per
// aligned 8-byte word.  No lock is taken; a uniprocessor machine pays one
// atomic flag load per transfer and copies plainly.  Devices carry their
// own small mutexes.
package hw

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"sva/internal/faultinject"
)

// PageSize is the physical/virtual page size in bytes.
const PageSize = 4096

const (
	physL2Bits = 11 // pages per directory leaf
	physL1Bits = 11 // leaves in the directory
	// physCoverPages is the page count the two-level directory covers:
	// 4 M pages = 16 GiB.  Pages beyond it live in an overflow map (the
	// guest address layout tops out far below, so it is effectively cold).
	physCoverPages = uint64(1) << (physL1Bits + physL2Bits)
	// tlbSlots sizes the uniprocessor page-pointer cache.
	tlbSlots = 64
)

// physPage backs one page.  It is declared as words so every page is
// 8-byte aligned by its type: the SMP paths address it word by word
// through sync/atomic, the uniprocessor paths view it as bytes.
type physPage [PageSize / 8]uint64

// bytes views the page as its PageSize bytes, in memory order.
func (p *physPage) bytes() *[PageSize]byte { return (*[PageSize]byte)(unsafe.Pointer(p)) }

// physLeaf is one directory leaf: pointers to materialized pages.
type physLeaf [1 << physL2Bits]atomic.Pointer[physPage]

// PhysMemory is a sparse, paged physical memory.  Pages materialize
// (zeroed) on first touch, so a 64-bit address space costs only what the
// guest actually uses.  Page lookup is lock-free (atomic directory walk +
// CAS materialization); under SMP, page contents are moved with per-word
// atomics so concurrent virtual CPUs never race host memory.
type PhysMemory struct {
	dir [1 << physL1Bits]atomic.Pointer[physLeaf]
	// high holds pages above the directory's coverage window.
	highMu sync.Mutex
	high   map[uint64]*physPage

	touched atomic.Int64
	// smp switches content accesses to the atomic word paths; set by
	// EnableSMP before the virtual CPUs launch.
	smp atomic.Bool

	// tlb is a direct-mapped page-pointer cache for the uniprocessor
	// Load/Store fast paths.  Pages materialize once and are never freed
	// or replaced, so a cached pointer can never go stale; the TLB is
	// read and written only on the !smp path, where a single goroutine
	// drives the machine.
	tlbIdx  [tlbSlots]uint64
	tlbPage [tlbSlots]*[PageSize]byte

	// Limit, if non-zero, bounds the highest addressable byte.
	Limit uint64
	// Chaos, when set, is the fault injector consulted on the memory seams:
	// ClassMemFlip flips a stored bit during Load (soft-error model),
	// ClassOOM fails a write as if physical backing ran out.  nil in
	// production; each hook costs one pointer compare.
	Chaos *faultinject.Injector
}

// NewPhysMemory returns a memory with the given size limit (0 = unlimited).
func NewPhysMemory(limit uint64) *PhysMemory {
	return &PhysMemory{high: make(map[uint64]*physPage), Limit: limit}
}

// EnableSMP switches page-content accesses to (or back from) the atomic
// word paths.  Call before the virtual CPUs start sharing this memory.
func (m *PhysMemory) EnableSMP(on bool) { m.smp.Store(on) }

// MemFault reports an out-of-range physical access.
type MemFault struct {
	Addr uint64
	Size int
}

func (f *MemFault) Error() string {
	return fmt.Sprintf("physical memory fault at %#x (size %d)", f.Addr, f.Size)
}

// page returns the backing page containing addr, materializing it if
// needed.  Lock-free: two atomic loads on the hot path, CAS on first
// touch (the losing CPU adopts the winner's page).
func (m *PhysMemory) page(addr uint64) *physPage {
	idx := addr / PageSize
	if idx >= physCoverPages {
		return m.highPage(idx)
	}
	slot := &m.dir[idx>>physL2Bits]
	leaf := slot.Load()
	if leaf == nil {
		leaf = new(physLeaf)
		if !slot.CompareAndSwap(nil, leaf) {
			leaf = slot.Load()
		}
	}
	ps := &leaf[idx&(1<<physL2Bits-1)]
	p := ps.Load()
	if p == nil {
		p = new(physPage)
		if ps.CompareAndSwap(nil, p) {
			m.touched.Add(1)
		} else {
			p = ps.Load()
		}
	}
	return p
}

// pageFast is page() behind the direct-mapped TLB.  Uniprocessor fast
// paths only: the TLB slots are plain (unsynchronized) fields.
func (m *PhysMemory) pageFast(addr uint64) *[PageSize]byte {
	idx := addr / PageSize
	s := idx & (tlbSlots - 1)
	if p := m.tlbPage[s]; p != nil && m.tlbIdx[s] == idx {
		return p
	}
	p := m.page(addr).bytes()
	m.tlbIdx[s] = idx
	m.tlbPage[s] = p
	return p
}

// highPage serves the overflow map above the directory window.
func (m *PhysMemory) highPage(idx uint64) *physPage {
	m.highMu.Lock()
	defer m.highMu.Unlock()
	p := m.high[idx]
	if p == nil {
		p = new(physPage)
		m.high[idx] = p
		m.touched.Add(1)
	}
	return p
}

// Check validates [addr, addr+n) against the memory limit without
// transferring (the RingMemory validation hook).
func (m *PhysMemory) Check(addr uint64, n int) error { return m.check(addr, n) }

func (m *PhysMemory) check(addr uint64, n int) error {
	if n < 0 {
		return &MemFault{Addr: addr, Size: n}
	}
	end := addr + uint64(n)
	if end < addr {
		return &MemFault{Addr: addr, Size: n}
	}
	if m.Limit != 0 && end > m.Limit {
		return &MemFault{Addr: addr, Size: n}
	}
	return nil
}

// inLimit is check() for the Load/Store fast paths: the access must
// neither wrap (a negative size does) nor pass Limit.
func (m *PhysMemory) inLimit(addr uint64, size int) bool {
	end := addr + uint64(size)
	return end >= addr && (m.Limit == 0 || end <= m.Limit)
}

// ReadAt copies len(buf) bytes starting at addr into buf.
func (m *PhysMemory) ReadAt(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf)); err != nil || len(buf) == 0 {
		return err
	}
	if m.smp.Load() {
		m.readWords(addr, buf)
		return nil
	}
	// Single-page transfers on a uniprocessor skip the per-page loop.
	if off := addr % PageSize; off+uint64(len(buf)) <= PageSize {
		copy(buf, m.pageFast(addr)[off:])
		return nil
	}
	for len(buf) > 0 {
		n := copy(buf, m.page(addr).bytes()[addr%PageSize:])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteAt copies buf into memory starting at addr.
func (m *PhysMemory) WriteAt(addr uint64, buf []byte) error {
	if m.Chaos != nil && m.Chaos.Should(faultinject.ClassOOM) {
		m.Chaos.Note("physmem.write", "synthetic OOM on %d-byte write at %#x", len(buf), addr)
		return &MemFault{Addr: addr, Size: len(buf)}
	}
	if err := m.check(addr, len(buf)); err != nil || len(buf) == 0 {
		return err
	}
	if m.smp.Load() {
		m.storeWords(addr, uint64(len(buf)), buf)
		return nil
	}
	// Single-page transfers on a uniprocessor skip the per-page loop.
	if off := addr % PageSize; off+uint64(len(buf)) <= PageSize {
		copy(m.pageFast(addr)[off:], buf)
		return nil
	}
	for len(buf) > 0 {
		n := copy(m.page(addr).bytes()[addr%PageSize:], buf)
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// Load reads a little-endian unsigned integer of the given byte size.
func (m *PhysMemory) Load(addr uint64, size int) (uint64, error) {
	// Fast paths: an access that stays inside one page with no fault
	// injector decodes straight out of the backing page — no staging
	// buffer, no per-page copy loop.  Semantically identical to the
	// general path below (same bounds check, same page walk).  Under SMP
	// a naturally aligned access is one atomic load of its page word.
	if off := addr % PageSize; off+uint64(size) <= PageSize && m.Chaos == nil {
		if !m.inLimit(addr, size) {
			return 0, &MemFault{Addr: addr, Size: size}
		}
		if !m.smp.Load() {
			switch size {
			case 8:
				return binary.LittleEndian.Uint64(m.pageFast(addr)[off:]), nil
			case 4:
				return uint64(binary.LittleEndian.Uint32(m.pageFast(addr)[off:])), nil
			case 2:
				return uint64(binary.LittleEndian.Uint16(m.pageFast(addr)[off:])), nil
			case 1:
				return uint64(m.pageFast(addr)[off]), nil
			}
		} else if validSize(size) && addr&uint64(size-1) == 0 {
			w := le64(atomic.LoadUint64(&m.page(addr)[off/8]))
			return w >> (off % 8 * 8) & sizeMask(size), nil
		}
	}
	var buf [8]byte
	if !validSize(size) {
		return 0, &MemFault{Addr: addr, Size: size}
	}
	if err := m.ReadAt(addr, buf[:size]); err != nil {
		return 0, err
	}
	if m.Chaos != nil && m.Chaos.Should(faultinject.ClassMemFlip) {
		// Flip one bit of the loaded word in backing memory too, so the
		// fault persists the way a real soft error in DRAM would.
		bit := m.Chaos.Rand(uint64(size) * 8)
		buf[bit/8] ^= 1 << (bit % 8)
		_ = m.WriteAt(addr, buf[:size])
		m.Chaos.Note("physmem.load", "flip bit %d of %d-byte load at %#x", bit, size, addr)
	}
	return binary.LittleEndian.Uint64(buf[:]) & sizeMask(size), nil
}

// Store writes a little-endian unsigned integer of the given byte size.
func (m *PhysMemory) Store(addr uint64, v uint64, size int) error {
	// Fast paths mirroring Load's: single page, no injector.
	if off := addr % PageSize; off+uint64(size) <= PageSize && m.Chaos == nil {
		if !m.inLimit(addr, size) {
			return &MemFault{Addr: addr, Size: size}
		}
		if !m.smp.Load() {
			switch size {
			case 8:
				binary.LittleEndian.PutUint64(m.pageFast(addr)[off:], v)
				return nil
			case 4:
				binary.LittleEndian.PutUint32(m.pageFast(addr)[off:], uint32(v))
				return nil
			case 2:
				binary.LittleEndian.PutUint16(m.pageFast(addr)[off:], uint16(v))
				return nil
			case 1:
				m.pageFast(addr)[off] = byte(v)
				return nil
			}
		} else if validSize(size) && addr&uint64(size-1) == 0 {
			storeAligned(m.page(addr), off, v, size)
			return nil
		}
	}
	var buf [8]byte
	if !validSize(size) {
		return &MemFault{Addr: addr, Size: size}
	}
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.WriteAt(addr, buf[:size])
}

// validSize reports whether size is a Load/Store width: 1, 2, 4 or 8.
func validSize(size int) bool { return size == 1 || size == 2 || size == 4 || size == 8 }

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(uint(size)*8) - 1
}

// Zero clears n bytes starting at addr.
func (m *PhysMemory) Zero(addr uint64, n uint64) error {
	if m.Chaos != nil && m.Chaos.Should(faultinject.ClassOOM) {
		m.Chaos.Note("physmem.zero", "synthetic OOM zeroing %d bytes at %#x", n, addr)
		return &MemFault{Addr: addr, Size: int(n)}
	}
	if err := m.check(addr, int(n)); err != nil {
		return err
	}
	if m.smp.Load() {
		m.storeWords(addr, n, nil)
		return nil
	}
	for n > 0 {
		off := addr % PageSize
		c := min(PageSize-off, n)
		clear(m.page(addr).bytes()[off : off+c])
		addr += c
		n -= c
	}
	return nil
}

// PagesTouched returns how many physical pages have materialized.
func (m *PhysMemory) PagesTouched() int { return int(m.touched.Load()) }

// The SMP content paths.  Every access to a page word goes through
// sync/atomic, so sibling VCPUs never race host memory and need no lock.
// Guest values are little-endian whatever the host's byte order: le64
// and le32 convert a word between the host's representation and the
// guest's value, and the bulk paths move words in memory order through
// binary.NativeEndian.

// hostLE reports a little-endian host, where page words already hold
// guest values.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// le64 converts between a page word as the host holds it and its
// little-endian value.  It is its own inverse, and the identity on a
// little-endian host.
func le64(w uint64) uint64 {
	if hostLE {
		return w
	}
	return bits.ReverseBytes64(w)
}

// le32 is le64 for a 4-byte half-word.
func le32(w uint32) uint32 {
	if hostLE {
		return w
	}
	return bits.ReverseBytes32(w)
}

// storeAligned stores the low size bytes of v at page offset off, a
// naturally aligned 1/2/4/8-byte slot: 8- and 4-byte stores are single
// atomic stores, narrower ones a CAS merge into the containing word.
func storeAligned(p *physPage, off, v uint64, size int) {
	switch size {
	case 8:
		atomic.StoreUint64(&p[off/8], le64(v))
	case 4:
		atomic.StoreUint32((*uint32)(unsafe.Pointer(&p.bytes()[off])), le32(uint32(v)))
	default:
		sh := off % 8 * 8
		mergeWord(&p[off/8], sizeMask(size)<<sh, v<<sh)
	}
}

// mergeWord replaces the bits of *w that mask selects with those of v
// (mask and v are little-endian values), atomically against every other
// access to the word.
func mergeWord(w *uint64, mask, v uint64) {
	for {
		old := atomic.LoadUint64(w)
		if atomic.CompareAndSwapUint64(w, old, le64(le64(old)&^mask|v&mask)) {
			return
		}
	}
}

// readWords is ReadAt under SMP: one atomic load per page word touched.
func (m *PhysMemory) readWords(addr uint64, buf []byte) {
	for len(buf) > 0 {
		p := m.page(addr)
		for off := addr % PageSize; off < PageSize && len(buf) > 0; {
			w := atomic.LoadUint64(&p[off/8])
			var n int
			if sh := off % 8; sh == 0 && len(buf) >= 8 {
				binary.NativeEndian.PutUint64(buf, w)
				n = 8
			} else {
				var b [8]byte
				binary.NativeEndian.PutUint64(b[:], w)
				n = copy(buf, b[sh:])
			}
			buf = buf[n:]
			off += uint64(n)
			addr += uint64(n)
		}
	}
}

// storeWords is WriteAt (src holds the n bytes) and Zero (src is nil)
// under SMP: whole page words are stored with one atomic store, partial
// edge words are CAS-merged.
func (m *PhysMemory) storeWords(addr, n uint64, src []byte) {
	for n > 0 {
		p := m.page(addr)
		for off := addr % PageSize; off < PageSize && n > 0; {
			sh := off % 8
			c := min(8-sh, n)
			if c == 8 {
				var w uint64
				if src != nil {
					w = binary.NativeEndian.Uint64(src)
				}
				atomic.StoreUint64(&p[off/8], w)
			} else {
				var b [8]byte
				if src != nil {
					copy(b[sh:], src[:c])
				}
				mergeWord(&p[off/8], sizeMask(int(c))<<(sh*8), binary.LittleEndian.Uint64(b[:]))
			}
			if src != nil {
				src = src[c:]
			}
			off += c
			addr += c
			n -= c
		}
	}
}
