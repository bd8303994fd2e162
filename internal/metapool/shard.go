// Sharded write paths for metapool registration.
//
// The paper puts pchk.reg.obj / pchk.drop.obj on the allocation hot path
// of every kernel allocator, and past 8 VCPUs a single per-pool mutex on
// that path becomes the scaling bottleneck.  This file splits the object
// store so writers in different address regions never contend:
//
//   - The address space is cut into 4 MiB regions, hashed onto numShards
//     shards.  An object contained in one region is "narrow" and lives in
//     that region's shard: its own splay tree under its own mutex.  Narrow
//     covers every real guest allocation; two narrow objects can only
//     overlap if they share a region, so one shard lock suffices for
//     conflict checks.
//
//   - Objects that span regions are "wide".  They are rare and live in a
//     separate tree behind wideMu, guarded by a wideCount fast-skip so the
//     narrow paths never touch that lock while no wide object exists.
//
//   - A brlock "gate" arbitrates between the two: narrow mutators take
//     their CPU's read slot, exclusive operations (wide register/drop,
//     Reset, chaos preparation) write-lock every slot.  Readers (findCPU)
//     never touch the gate at all — they take only the owning shard's
//     mutex, and only when the last-hit cache misses.
//
// Lock order (outermost first):
//
//	gate (per-CPU read slot, or all slots for exclusive ops)
//	  shard.mu (at most one shard at a time)
//	wideMu  — never nested with any shard.mu
//	traceMu — innermost, cold paths only
package metapool

import (
	"sync"

	"sva/internal/splay"
)

const (
	// regionShift: one region is 4 MiB of address space.
	regionShift = 22
	// numShards is the number of region shards (regions hash round-robin).
	numShards = 16
	// gateSlots is the brlock width: one read slot per possible VCPU.
	gateSlots = 32
)

// narrow reports whether r fits entirely inside one region.
func narrow(r splay.Range) bool {
	if r.Len == 0 || r.Start+r.Len < r.Start {
		return false
	}
	return r.Start>>regionShift == (r.End()-1)>>regionShift
}

// shardIndex maps an address to its region's shard.
func shardIndex(addr uint64) int {
	return int((addr >> regionShift) & (numShards - 1))
}

// objShard is one region shard: a splay tree of the narrow objects whose
// region hashes here, guarded by mu.
type objShard struct {
	mu   sync.Mutex
	tree splay.Tree
	_    [48]byte // pad to a cache line boundary between shards
}

// gateSlot is one padded reader slot of the registration brlock.
type gateSlot struct {
	mu sync.RWMutex
	_  [40]byte // keep slots on distinct cache lines
}

// brGate is the big-reader lock arbitrating narrow (shared) against wide
// (exclusive) write-path operations.  Narrow mutators read-lock only their
// own CPU's slot — uncontended in the common case — while exclusive
// operations write-lock every slot in order.
type brGate struct {
	slot [gateSlots]gateSlot
}

// rlock takes cpu's read slot and returns the slot index for runlock.
// Out-of-range CPUs (hostile intrinsic arguments are clamped by the VM)
// share slot 0.
func (g *brGate) rlock(cpu int) int {
	s := 0
	if uint(cpu) < gateSlots {
		s = cpu
	}
	g.slot[s].mu.RLock()
	return s
}

func (g *brGate) runlock(s int) { g.slot[s].mu.RUnlock() }

// lockAll write-locks every slot in ascending order: once it returns, no
// narrow mutator is inside its critical section and none can enter.
func (g *brGate) lockAll() {
	for i := range g.slot {
		g.slot[i].mu.Lock()
	}
}

func (g *brGate) unlockAll() {
	for i := gateSlots - 1; i >= 0; i-- {
		g.slot[i].mu.Unlock()
	}
}

// overlapsLocked collects up to limit (0: all) live objects overlapping
// rg from every shard tree and the wide tree, without splaying
// (OverlapRanges), so the splay-lookup accounting stays untouched.  Caller
// holds the gate exclusively.
func (p *Pool) overlapsLocked(rg splay.Range, limit int) []splay.Range {
	var over []splay.Range
	for i := range p.obj {
		sh := &p.obj[i]
		sh.mu.Lock()
		over = append(over, sh.tree.OverlapRanges(rg.Start, rg.Len, limit)...)
		sh.mu.Unlock()
		if limit > 0 && len(over) >= limit {
			return over
		}
	}
	p.wideMu.Lock()
	over = append(over, p.wide.OverlapRanges(rg.Start, rg.Len, limit)...)
	p.wideMu.Unlock()
	return over
}

// removeObjectLocked deletes a known-live object from whichever store
// holds it.  Caller holds the gate exclusively (stale-stack eviction on the
// wide registration path).
func (p *Pool) removeObjectLocked(r splay.Range) {
	if narrow(r) {
		sh := &p.obj[shardIndex(r.Start)]
		sh.mu.Lock()
		sh.tree.Remove(r.Start)
		sh.mu.Unlock()
		return
	}
	p.wideMu.Lock()
	p.wide.Remove(r.Start)
	p.wideMu.Unlock()
	p.wideCount.Add(^uint64(0))
}
