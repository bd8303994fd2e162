// Package metapool implements the run-time side of SVA's safety checking
// (paper §4.3–§4.5): a metapool is the run-time representation of one
// points-to graph partition.  It records every registered object and
// answers the three run-time checks — bounds checks on indexing,
// load-store checks on non-type-homogeneous pools, and indirect call
// checks — plus object registration/deregistration (pchk.reg.obj /
// pchk.drop.obj).
//
// Lookup path: each VCPU's last-hit cache, then the pool's splay tree.  The
// splay tree is the paper's structure and the only store of record; the
// cache holds copies of positive answers and is invalidated by generation
// whenever an object leaves the set.
//
// Concurrency: pools are shared by every virtual CPU of an SMP guest.
// Per-VCPU statistics and last-hit caches are owner-written.  The tree and
// the largest-object watermark sit under one mutex per pool, which every
// registration, drop and cache-missing lookup takes.  Checks deliberately
// run unserialized against registration: a guest that races an access
// against a free gets a racy verdict, exactly as it would on SMP hardware;
// a guest whose accesses are ordered by its own locks (which the SVM
// executes with host happens-before edges) always sees the current object
// set.
//
// Lock order: mu, then traceMu (trace emission on cold paths only).
package metapool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sva/internal/faultinject"
	"sva/internal/splay"
	"sva/internal/telemetry"
)

// ViolationKind classifies a detected safety violation.
type ViolationKind int

const (
	// BoundsViolation: an indexing operation computed a pointer outside
	// the bounds of the source object (buffer overrun).
	BoundsViolation ViolationKind = iota
	// LoadStoreViolation: a load/store through a pointer that does not
	// target a registered object of its metapool.
	LoadStoreViolation
	// IndirectCallViolation: an indirect call to a function outside the
	// compiler-computed callee set (control-flow integrity).
	IndirectCallViolation
	// IllegalFree: pchk.drop.obj on a pointer that is not the start of a
	// live registered object (double free or bad free).
	IllegalFree
	// RegistrationConflict: pchk.reg.obj overlapping a live object.
	RegistrationConflict
	// UninitPointer: dereference of a poison/uninitialized pointer value.
	UninitPointer
	// MetadataCorruption: the pool's own check metadata (a splay node)
	// failed validation — a hardware-level fault hit the checker itself.
	// The pool is quarantined and every subsequent check fails closed.
	MetadataCorruption
)

var kindNames = [...]string{
	"bounds violation",
	"load-store violation",
	"indirect call violation",
	"illegal free",
	"registration conflict",
	"uninitialized pointer dereference",
	"check metadata corruption",
}

func (k ViolationKind) String() string {
	if int(k) >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("violation(%d)", int(k))
}

// Violation is the error raised when a run-time check fails.  The SVM
// converts it into a safety trap.
type Violation struct {
	Kind ViolationKind
	Pool string
	Addr uint64
	Msg  string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("%s in metapool %s at %#x: %s", v.Kind, v.Pool, v.Addr, v.Msg)
}

// Stats counts run-time check activity per metapool.  The schema lives in
// the telemetry package so the registry snapshot and every consumer share
// one type.
type Stats = telemetry.CheckStats

// hitCache is one VCPU's last-hit cache: the most recently found objects,
// most recent first.  Invalidation is by generation — a removal from the
// object set bumps the pool epoch, and a cache whose recorded epoch is
// stale starts empty.
type hitCache struct {
	epoch uint64
	n     int
	r     [2]splay.Range
}

// perCPU is one VCPU's private pool state: its statistics and its
// last-hit cache.  Only the owning VCPU writes it; snapshots merge the
// statistics of every VCPU.
type perCPU struct {
	st    Stats
	cache hitCache
}

// Pool is one run-time metapool.
type Pool struct {
	Name string
	// TypeHomogeneous pools hold objects of a single type; loads and
	// stores through them need no lscheck and dangling pointers cannot
	// break type safety (given allocator alignment/no-release rules).
	TypeHomogeneous bool
	// Complete is false for partitions exposed to unanalyzed code; checks
	// are "reduced": a failed lookup is inconclusive rather than an error.
	Complete bool
	// ElemSize is the object element size for TH pools (0 otherwise).
	ElemSize uint64

	// mu guards tree and maxObj.
	mu   sync.Mutex
	tree splay.Tree
	// maxObj is the largest object length ever registered: the redundancy
	// that lets a lookup recognize grow-corruptions of a splay node.
	maxObj uint64

	// epoch is the object-set generation that invalidates the per-VCPU
	// last-hit caches.
	epoch atomic.Uint64
	// cpus holds one private state block per VCPU; cpus[0] always exists
	// and also absorbs out-of-range CPU numbers.
	cpus []*perCPU
	// NoCache disables the last-hit cache, forcing every lookup through
	// the splay tree (the cache's differential oracle and the uncached
	// benchmark configuration).
	NoCache bool

	// trace, when set, receives pool lifecycle events (cold paths only:
	// quarantine — never the check hot path).
	// traceMu serializes emission (Trace.Emit is not thread-safe).
	trace   *telemetry.Trace
	traceMu sync.Mutex

	// chaos, when set, is the fault injector consulted on every lookup
	// (ClassSplay corrupts a node's metadata in place).  nil in
	// production; the hook costs one pointer compare.
	chaos *faultinject.Injector
	// quarantined is set once check metadata fails validation; from then
	// on every check fails closed with a MetadataCorruption violation.
	quarantined atomic.Bool

	// userLo/userHi: if set, all of userspace is treated as one registered
	// object of this pool (paper §4.6).  Written during setup only.
	userLo, userHi uint64
	hasUser        bool

	// batched counts sva.pool.regbatch calls (a cold write-path counter
	// with no single owning VCPU, folded into mergedStats).
	batched atomic.Uint64
}

// NewPool creates a metapool.
func NewPool(name string, typeHomogeneous, complete bool, elemSize uint64) *Pool {
	return &Pool{Name: name, TypeHomogeneous: typeHomogeneous, Complete: complete,
		ElemSize: elemSize, cpus: []*perCPU{{}}}
}

// setVCPUs sizes the per-VCPU state.  Must be called before the VCPUs
// start running.
func (p *Pool) setVCPUs(n int) {
	for len(p.cpus) < n {
		p.cpus = append(p.cpus, &perCPU{})
	}
}

// cpu returns cpu's private state (VCPU 0's for out-of-range numbers).
func (p *Pool) cpu(cpu int) *perCPU {
	if uint(cpu) < uint(len(p.cpus)) {
		return p.cpus[cpu]
	}
	return p.cpus[0]
}

// mergedStats sums the per-VCPU statistics plus the pool-level write-path
// counters into one view of the pool.
func (p *Pool) mergedStats() Stats {
	var s Stats
	for _, c := range p.cpus {
		s.Add(c.st)
	}
	s.Batched += p.batched.Load()
	return s
}

// IsQuarantined reports whether the pool's metadata was found corrupt
// (every check fails closed from then on).
func (p *Pool) IsQuarantined() bool { return p.quarantined.Load() }

// RegisterUserSpace marks [lo, hi) — the whole of user-space memory — as a
// single valid object of the pool.
func (p *Pool) RegisterUserSpace(lo, hi uint64) {
	p.userLo, p.userHi, p.hasUser = lo, hi, true
}

func (p *Pool) userRange(addr uint64) (splay.Range, bool) {
	if p.hasUser && addr >= p.userLo && addr < p.userHi {
		return splay.Range{Start: p.userLo, Len: p.userHi - p.userLo}, true
	}
	return splay.Range{}, false
}

// findCPU looks up the object containing addr: cpu's last-hit cache, then
// the tree.  CacheHits counts lookups the cache answered; CacheMisses
// counts lookups that paid for a tree descent.
func (p *Pool) findCPU(cpu int, addr uint64) (splay.Range, bool) {
	if p.quarantined.Load() {
		return splay.Range{}, false // fail closed: metadata is untrusted
	}
	if p.chaos != nil {
		p.chaosPrep()
	}
	c := p.cpu(cpu)
	if r, ok := p.cacheLookup(c, addr); ok {
		return r, true
	}
	c.st.CacheMisses++
	r, ok := p.treeFind(addr, true)
	if ok {
		p.cacheInsert(c, r)
	}
	return r, ok
}

// treeFind looks addr up in the tree.  With validate, a range failing
// rangeValid quarantines the pool and reads as a miss.  The filter runs
// under mu, the lock that also guards maxObj.
func (p *Pool) treeFind(addr uint64, validate bool) (splay.Range, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.tree.Find(addr)
	if ok && validate && !p.rangeValid(r) {
		// The checker's own metadata is damaged.  Fail closed: quarantine
		// the pool rather than answer checks from corrupt state.
		p.quarantine(r)
		return splay.Range{}, false
	}
	return r, ok
}

// cacheLookup consults c's last-hit cache (epoch-checked, move-to-front),
// counting a CacheHit on success.  A no-op returning false when the cache
// is disabled.
func (p *Pool) cacheLookup(c *perCPU, addr uint64) (splay.Range, bool) {
	if p.NoCache {
		return splay.Range{}, false
	}
	h := &c.cache
	if e := p.epoch.Load(); h.epoch != e {
		h.epoch, h.n = e, 0
	}
	for i := 0; i < h.n; i++ {
		if h.r[i].Contains(addr) {
			c.st.CacheHits++
			if i != 0 {
				h.r[0], h.r[i] = h.r[i], h.r[0]
			}
			return h.r[0], true
		}
	}
	return splay.Range{}, false
}

// cacheInsert move-to-front inserts r into c's cache; the oldest entry
// falls off.
func (p *Pool) cacheInsert(c *perCPU, r splay.Range) {
	if p.NoCache {
		return
	}
	h := &c.cache
	h.r[1] = h.r[0]
	h.r[0] = r
	if h.n < len(h.r) {
		h.n++
	}
}

// rangeValid is the plausibility filter on ranges coming back from the
// splay tree: a zero or wrapping length, or a length larger than any object
// ever registered here, cannot be an intact registration.  Caller holds mu.
func (p *Pool) rangeValid(r splay.Range) bool {
	return r.Len != 0 && r.Start+r.Len > r.Start && r.Len <= p.maxObj
}

// quarantine marks the pool's metadata as untrusted.  Idempotent; callable
// from any path (the Swap guarantees one winner emits the trace event).
func (p *Pool) quarantine(r splay.Range) {
	if p.quarantined.Swap(true) {
		return
	}
	p.invalidate()
	p.emitTrace(telemetry.EvQuarantine, []uint64{r.Start, r.Len},
		"splay metadata failed validation")
}

// emitTrace serializes trace emission (Trace.Emit is not thread-safe and
// pool events can originate on any VCPU).  Cold paths only.
func (p *Pool) emitTrace(kind telemetry.EventKind, args []uint64, msg string) {
	if p.trace == nil {
		return
	}
	p.traceMu.Lock()
	p.trace.Emit(kind, p.Name, args, msg)
	p.traceMu.Unlock()
}

// corruptionErr is the fail-closed answer every check gives once the pool
// is quarantined.
func (p *Pool) corruptionErr(st *Stats, addr uint64) error {
	st.Violations++
	return &Violation{Kind: MetadataCorruption, Pool: p.Name, Addr: addr,
		Msg: "pool quarantined: check metadata corrupt, failing closed"}
}

// chaosPrep runs before every lookup while fault injection is armed: it
// rolls the injection dice under mu, so no mutator changes tree membership
// while a victim is picked.  Chaos runs are cold by construction.
func (p *Pool) chaosPrep() {
	p.mu.Lock()
	if p.chaos.Should(faultinject.ClassSplay) {
		p.corruptNode()
	}
	p.mu.Unlock()
}

// corruptNode is the ClassSplay injection payload: flip metadata in one
// splay node in place, modeling a hardware fault striking the checker's own
// state.  All three modes are fail-closed under rangeValid / lookup-miss
// semantics — the point of the campaign is proving that.  Caller holds mu;
// the victim is picked uniformly by in-order rank.
func (p *Pool) corruptNode() {
	total := p.tree.Len()
	if total == 0 {
		return
	}
	k := int(p.chaos.Rand(uint64(total)))
	mode := p.chaos.Rand(3)
	old, ok := p.tree.MutateNth(k, func(r *splay.Range) {
		switch mode {
		case 0:
			r.Len = 0 // shrink to nothing: lookups miss, checks fail closed
		case 1:
			r.Len |= 1 << (63 - p.chaos.Rand(8)) // grow: caught by rangeValid
		case 2:
			r.Start ^= 1 << (33 + p.chaos.Rand(20)) // teleport: lookups miss
		}
	})
	if ok {
		p.chaos.Note("splay.find", "pool %s node %d was %v, mode %d",
			p.Name, k, old, mode)
		// Drop cached copies of the pre-corruption range: the fault model
		// is a damaged node, not a damaged node plus a helpful cache.
		p.invalidate()
	}
}

// invalidate bumps the object-set epoch, emptying every VCPU's last-hit
// cache at its next lookup.  Called AFTER every removal from the object
// set (drop, stale-stack eviction, node corruption) — a cached range may
// be the one just removed.  Registrations never invalidate: the caches
// hold only positive hits, and adding an object cannot stale a positive.
//
// The bump must follow the removal in program order.  A reader loads the
// epoch, finds the object under mu, and caches it after unlocking.  If it
// found the object, its tree read preceded the removal, so its epoch load
// preceded the post-removal bump and its cache entry carries the pre-bump
// epoch — dead on arrival.  Bumping BEFORE the removal leaves a window
// where a racing reader caches the doomed object under the new epoch and
// then serves it indefinitely, turning one racy lookup into wrong verdicts
// for later accesses the guest properly ordered after the free.
func (p *Pool) invalidate() { p.epoch.Add(1) }

// growMaxObj raises the largest-ever-object watermark to at least n.
// Caller holds mu.
func (p *Pool) growMaxObj(n uint64) {
	if n > p.maxObj {
		p.maxObj = n
	}
}

// Object tags.
const (
	TagHeap  = 0
	TagStack = 1
)

// RegisterStackCPU records a stack object.  Conflicting *stale stack*
// registrations — left behind when a task died without unwinding its kernel
// frames — are evicted first (each counted in Dropped): their frames are
// gone, so the registrations cannot correspond to live objects.  Eviction
// is all-or-nothing: if any overlapping object is not a stack frame, the
// registration is a real violation and nothing is evicted.
func (p *Pool) RegisterStackCPU(cpu int, addr, size uint64) error {
	if size == 0 {
		return nil
	}
	return p.register(cpu, splay.Range{Start: addr, Len: size, Tag: TagStack}, true)
}

// RegisterCPU records a new object [addr, addr+size) (pchk.reg.obj).
func (p *Pool) RegisterCPU(cpu int, addr, size uint64, tag uint32) error {
	if size == 0 {
		return nil // zero-sized allocations register nothing
	}
	return p.register(cpu, splay.Range{Start: addr, Len: size, Tag: tag}, false)
}

// register inserts rg under mu.  stack selects the stale-stack eviction
// protocol (RegisterStackCPU).
func (p *Pool) register(cpu int, rg splay.Range, stack bool) error {
	st := &p.cpu(cpu).st
	p.mu.Lock()
	defer p.mu.Unlock()
	p.growMaxObj(rg.Len)
	return p.insertLocked(st, rg, stack)
}

// insertLocked inserts rg into the tree; caller holds mu.  When the tree
// refuses it, the overlapping objects decide: stale stack frames under a
// stack registration are all evicted, anything else is a conflict and
// nothing is evicted.
func (p *Pool) insertLocked(st *Stats, rg splay.Range, stack bool) error {
	if !p.tree.Insert(rg) {
		if rg.Start+rg.Len < rg.Start {
			st.Violations++ // wraparound: no object can cover it
			return p.conflictErr(rg, stack)
		}
		over := p.tree.OverlapRanges(rg.Start, rg.Len, overlapLimit(stack))
		if !evictable(over, stack) {
			st.Violations++
			return p.conflictErr(rg, stack)
		}
		for _, old := range over {
			p.tree.Remove(old.Start)
		}
		st.Dropped += uint64(len(over))
		p.invalidate() // after the removals: an evicted frame may be cached
		p.tree.Insert(rg)
	}
	st.Registered++
	return nil
}

// overlapLimit is how many overlapping objects a registration must see to
// decide: one proves a heap registration's conflict, while a stack
// registration needs them all to evict them.
func overlapLimit(stack bool) int {
	if stack {
		return 0 // OverlapRanges: no limit
	}
	return 1
}

// evictable reports whether a registration may evict every object in
// over: only a stack registration may, and only stale stack frames.
func evictable(over []splay.Range, stack bool) bool {
	for _, r := range over {
		if !stack || r.Tag != TagStack {
			return false
		}
	}
	return true
}

func (p *Pool) conflictErr(rg splay.Range, stack bool) error {
	kind := "object"
	if stack {
		kind = "stack object"
	}
	return &Violation{Kind: RegistrationConflict, Pool: p.Name, Addr: rg.Start,
		Msg: fmt.Sprintf("%s [%#x,%#x) overlaps a live object", kind, rg.Start, rg.End())}
}

// maxBatch bounds host work per sva.pool.regbatch call (arguments are
// guest-controlled).
const maxBatch = 4096

// RegisterBatchCPU records n contiguous objects of esize bytes starting at
// base — the slab-refill shape (sva.pool.regbatch).  Semantically
// identical to n RegisterCPU calls, registered under one hold of mu.  On a
// conflict at element k, elements before k stay registered and the
// conflict is returned, exactly as the per-object sequence would behave.
func (p *Pool) RegisterBatchCPU(cpu int, base, n, esize uint64) error {
	if n == 0 || esize == 0 {
		return nil
	}
	st := &p.cpu(cpu).st
	if n > maxBatch {
		st.Violations++
		return &Violation{Kind: RegistrationConflict, Pool: p.Name, Addr: base,
			Msg: fmt.Sprintf("batch of %d objects exceeds the %d-object bound", n, maxBatch)}
	}
	p.batched.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.growMaxObj(esize)
	for i := uint64(0); i < n; i++ {
		rg := splay.Range{Start: base + i*esize, Len: esize, Tag: TagHeap}
		if err := p.insertLocked(st, rg, false); err != nil {
			return err
		}
	}
	return nil
}

// DropCPU removes the object starting at addr (pchk.drop.obj).  Dropping a
// pointer that is not the start of a live object is an illegal free
// (guarantee T5: no double or illegal frees).
func (p *Pool) DropCPU(cpu int, addr uint64) error {
	st := &p.cpu(cpu).st
	p.mu.Lock()
	r, ok := p.tree.FindStart(addr)
	if ok {
		p.tree.Remove(r.Start)
	}
	p.mu.Unlock()
	if ok {
		p.invalidate() // after the removal: the object may be cached
		st.Dropped++
		return nil
	}
	st.Violations++ // nothing was removed: no invalidation needed
	if r, ok := p.treeFind(addr, false); ok {
		return &Violation{Kind: IllegalFree, Pool: p.Name, Addr: addr,
			Msg: fmt.Sprintf("free of interior pointer into %v", r)}
	}
	return &Violation{Kind: IllegalFree, Pool: p.Name, Addr: addr,
		Msg: "free of address with no live object (double free?)"}
}

// GetBoundsCPU returns the bounds of the object containing addr.
func (p *Pool) GetBoundsCPU(cpu int, addr uint64) (start, end uint64, ok bool) {
	if r, ok := p.userRange(addr); ok {
		return r.Start, r.End(), true
	}
	if r, ok := p.findCPU(cpu, addr); ok {
		return r.Start, r.End(), true
	}
	return 0, 0, false
}

// BoundsCheckCPU verifies that derived — a pointer computed by indexing
// from src — still points into (or one past) the same registered object
// (pchk.bounds / the boundscheck operation).
//
// For incomplete pools the check is "reduced" (§4.5): if neither pointer
// hits a registered object, nothing can be concluded and the check passes;
// if either one hits, both must be in the same object.
func (p *Pool) BoundsCheckCPU(cpu int, src, derived uint64) error {
	st := &p.cpu(cpu).st
	st.BoundsChecks++
	if p.quarantined.Load() {
		return p.corruptionErr(st, src)
	}
	r, ok := p.userRange(src)
	if !ok {
		r, ok = p.findCPU(cpu, src)
		if p.quarantined.Load() {
			return p.corruptionErr(st, src)
		}
	}
	if ok {
		// One-past-the-end is legal for the derived pointer (C idiom).
		if derived >= r.Start && derived <= r.End() {
			return nil
		}
		st.Violations++
		return &Violation{Kind: BoundsViolation, Pool: p.Name, Addr: derived,
			Msg: fmt.Sprintf("indexing from %#x escapes object %v", src, r)}
	}
	// Source not registered.  Check whether the derived pointer lands in
	// some object; then src and derived straddle an object boundary.
	if r2, ok2 := p.findCPU(cpu, derived); ok2 {
		st.Violations++
		return &Violation{Kind: BoundsViolation, Pool: p.Name, Addr: derived,
			Msg: fmt.Sprintf("indexing from unregistered %#x into object %v", src, r2)}
	}
	if p.quarantined.Load() {
		return p.corruptionErr(st, derived)
	}
	if p.Complete {
		st.Violations++
		return &Violation{Kind: BoundsViolation, Pool: p.Name, Addr: src,
			Msg: "indexing from pointer with no registered object in complete pool"}
	}
	return nil // reduced check on incomplete pool: inconclusive
}

// LoadStoreCheckCPU verifies that a pointer used by a load or store
// targets a registered object of this pool (pchk.lscheck).  It is only
// required for non-TH pools; for incomplete pools it is disabled by the
// compiler (the sole source of false negatives, §4.5).
func (p *Pool) LoadStoreCheckCPU(cpu int, addr uint64) error {
	st := &p.cpu(cpu).st
	st.LSChecks++
	if p.quarantined.Load() {
		return p.corruptionErr(st, addr)
	}
	if _, ok := p.userRange(addr); ok {
		return nil
	}
	if _, ok := p.findCPU(cpu, addr); ok {
		return nil
	}
	if p.quarantined.Load() {
		return p.corruptionErr(st, addr)
	}
	if !p.Complete {
		return nil // reduced check
	}
	st.Violations++
	return &Violation{Kind: LoadStoreViolation, Pool: p.Name, Addr: addr,
		Msg: "access through pointer outside every registered object"}
}

// NoteElidedBoundsCPU records a bounds check the compiler proved redundant
// at this site (the check itself does not run), charged to cpu.
func (p *Pool) NoteElidedBoundsCPU(cpu int) { p.cpu(cpu).st.ElidedBounds++ }

// NoteElidedLSCPU records an elided load-store check, charged to cpu.
func (p *Pool) NoteElidedLSCPU(cpu int) { p.cpu(cpu).st.ElidedLS++ }

// NumObjects returns the live object count.
func (p *Pool) NumObjects() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tree.Len()
}

// Quarantine forces the pool into the fail-closed state (every check
// reports MetadataCorruption from now on).  Exposed for the domain
// supervisor's cross-reboot ledger; the normal entry point is metadata
// validation failing during a check.
func (p *Pool) Quarantine() { p.quarantined.Store(true) }

// SplayLookups returns how many lookups reached the pool's splay tree
// (last-hit-cache hits never do).
func (p *Pool) SplayLookups() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tree.Lookups
}

// splayDepth reads the tree's height (snapshot gauge).
func (p *Pool) splayDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tree.Depth()
}

// Registry is the VM's table of run-time metapools plus the indirect-call
// target sets computed by the compiler's call-graph analysis.
type Registry struct {
	Pools []*Pool
	// CallSets[i] is the set of legal function addresses for indirect
	// call-check set i.  Populated at module-load time, read-only after.
	CallSets []map[uint64]bool
	// icCPUs counts indirect-call checks per VCPU at the registry level
	// (call sets are not owned by any single pool); icCPUs[0] always
	// exists and also absorbs out-of-range CPU numbers.
	icCPUs []*icStat
	// nvcpu is the VCPU count applied to pools added after SetVCPUs.
	nvcpu int
	// noCache is inherited by pools added after SetCacheDisabled(true).
	noCache bool
	// trace is inherited by pools added after SetTrace.
	trace *telemetry.Trace
	// chaos is inherited by pools added after SetChaos.
	chaos *faultinject.Injector
}

// icStat is one VCPU's indirect-call counters.
type icStat struct {
	Checks     uint64
	Violations uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{icCPUs: []*icStat{{}}} }

// SetVCPUs sizes every pool's per-VCPU state, plus the registry's
// per-VCPU indirect-call counters.  Must be called before the VCPUs start running;
// pools added later inherit the count.
func (r *Registry) SetVCPUs(n int) {
	if n < 1 {
		n = 1
	}
	r.nvcpu = n
	for len(r.icCPUs) < n {
		r.icCPUs = append(r.icCPUs, &icStat{})
	}
	for _, p := range r.Pools {
		p.setVCPUs(n)
	}
}

// AddPool appends a pool and returns its ID.  Quarantine is sticky by
// name within a registry lifetime: a kernel that reboots inside the same
// VM and re-creates a pool (same name, possibly the same VA) inherits
// the old incarnation's fail-closed verdict rather than laundering it.
func (r *Registry) AddPool(p *Pool) int {
	if r.noCache {
		p.NoCache = true
	}
	if !p.IsQuarantined() {
		for _, old := range r.Pools {
			if old.Name == p.Name && old.IsQuarantined() {
				p.Quarantine()
				break
			}
		}
	}
	if r.nvcpu > 1 {
		p.setVCPUs(r.nvcpu)
	}
	p.trace = r.trace
	p.chaos = r.chaos
	r.Pools = append(r.Pools, p)
	if r.trace != nil {
		r.trace.Emit(telemetry.EvPoolCreate, p.Name, []uint64{uint64(len(r.Pools) - 1)}, "")
	}
	return len(r.Pools) - 1
}

// Pool returns the pool with the given ID.  The ID must come from a
// trusted (host-side) source; use PoolChecked for guest-supplied IDs.
func (r *Registry) Pool(id int) *Pool {
	if id < 0 || id >= len(r.Pools) {
		panic(fmt.Sprintf("metapool: bad pool id %d", id))
	}
	return r.Pools[id]
}

// PoolChecked returns the pool with the given ID, or a Violation when the
// ID does not name a live pool.  This is the lookup for IDs that arrive
// from guest state (pchk.* intrinsic arguments): a bad ID is the guest's
// fault and must surface as a classified outcome, never a host panic.
func (r *Registry) PoolChecked(id int) (*Pool, error) {
	if id < 0 || id >= len(r.Pools) {
		return nil, &Violation{Kind: MetadataCorruption, Pool: fmt.Sprintf("pool%d", id),
			Addr: uint64(id), Msg: "check names a metapool that does not exist"}
	}
	return r.Pools[id], nil
}

// QuarantinedNames returns the names of every quarantined pool — the
// domain supervisor's ledger, carried across a microreboot and re-applied
// to the fresh registry with ApplyQuarantine.
func (r *Registry) QuarantinedNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, p := range r.Pools {
		if p.IsQuarantined() && !seen[p.Name] {
			seen[p.Name] = true
			names = append(names, p.Name)
		}
	}
	return names
}

// ApplyQuarantine forces every pool whose name appears in names into the
// fail-closed state (and remembers nothing else: names with no matching
// pool are ignored — the rebuilt image may legitimately not create them).
func (r *Registry) ApplyQuarantine(names []string) {
	if len(names) == 0 {
		return
	}
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	for _, p := range r.Pools {
		if set[p.Name] {
			p.Quarantine()
		}
	}
}

// AddCallSet registers an indirect-call target set, returning its ID.
func (r *Registry) AddCallSet(targets map[uint64]bool) int {
	r.CallSets = append(r.CallSets, targets)
	return len(r.CallSets) - 1
}

// IndirectCallCheckCPU verifies that target is a legal callee for set id
// (control-flow integrity, guarantee T1).
func (r *Registry) IndirectCallCheckCPU(cpu, id int, target uint64) error {
	sh := r.icCPUs[0]
	if uint(cpu) < uint(len(r.icCPUs)) {
		sh = r.icCPUs[cpu]
	}
	sh.Checks++
	if id < 0 || id >= len(r.CallSets) {
		sh.Violations++
		return &Violation{Kind: IndirectCallViolation, Pool: fmt.Sprintf("callset%d", id),
			Addr: target, Msg: "unknown call set"}
	}
	if r.CallSets[id][target] {
		return nil
	}
	sh.Violations++
	return &Violation{Kind: IndirectCallViolation, Pool: fmt.Sprintf("callset%d", id),
		Addr: target, Msg: "indirect call target not in compiler-computed callee set"}
}

// icTotals sums the registry-level indirect-call counters across VCPUs.
func (r *Registry) icTotals() (checks, viols uint64) {
	for _, sh := range r.icCPUs {
		checks += sh.Checks
		viols += sh.Violations
	}
	return checks, viols
}

// TotalStats sums statistics across all pools (merging per-VCPU statistics)
// plus the registry-level indirect-call counters.
func (r *Registry) TotalStats() Stats {
	var s Stats
	for _, p := range r.Pools {
		s.Add(p.mergedStats())
	}
	ic, icv := r.icTotals()
	s.ICChecks += ic
	s.Violations += icv
	return s
}

// SetCacheDisabled toggles the last-hit cache on every current pool and
// every pool registered later (benchmarking the uncached check path).
func (r *Registry) SetCacheDisabled(disabled bool) {
	r.noCache = disabled
	for _, p := range r.Pools {
		p.NoCache = disabled
		if disabled {
			p.invalidate()
		}
	}
}

// PoolSnapshot is one pool's row in a Registry snapshot.
type PoolSnapshot = telemetry.PoolStats

// Snapshot captures per-pool check and cache statistics plus the
// registry-level indirect-call counters at one instant.  internal/report
// and `sva-bench -table=checks` render it.
type Snapshot = telemetry.CheckSnapshot

// Snapshot returns the registry's current statistics, merging per-VCPU
// counters.  During an SMP run they are live; snapshot after the VCPUs join
// for exact totals.
func (r *Registry) Snapshot() Snapshot {
	ic, icv := r.icTotals()
	s := Snapshot{
		ICChecks:     ic,
		ICViolations: icv,
		Totals:       r.TotalStats(),
	}
	for _, p := range r.Pools {
		s.Pools = append(s.Pools, PoolSnapshot{
			Name:            p.Name,
			TypeHomogeneous: p.TypeHomogeneous,
			Complete:        p.Complete,
			Objects:         p.NumObjects(),
			SplayLookups:    p.SplayLookups(),
			SplayDepth:      p.splayDepth(),
			Quarantined:     p.quarantined.Load(),
			Stats:           p.mergedStats(),
		})
	}
	return s
}

// Attach registers the metapool registry as a telemetry source: every
// unified snapshot carries the full per-pool check statistics.
func (r *Registry) Attach(reg *telemetry.Registry) {
	reg.Register(func(s *telemetry.Snapshot) {
		s.Checks = r.Snapshot()
	})
}

// SetTrace routes pool lifecycle events (create, quarantine) into a telemetry
// trace ring.  Pass nil to detach.  The check hot path is unaffected.
func (r *Registry) SetTrace(t *telemetry.Trace) {
	r.trace = t
	for _, p := range r.Pools {
		p.trace = t
	}
}

// SetChaos arms (or, with nil, disarms) the ClassSplay fault-injection seam
// on every current and future pool.  With no injector the hot-path cost is
// one nil compare per lookup.  Call it while no VCPU runs.
func (r *Registry) SetChaos(inj *faultinject.Injector) {
	r.chaos = inj
	for _, p := range r.Pools {
		p.chaos = inj
	}
}
