package metapool

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"sva/internal/splay"
)

// lcg is a tiny deterministic generator so concurrent workers and their
// serial replays draw identical operation streams.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 16)
}

// stressOp is one worker operation, pre-generated so the concurrent run
// and the oracle replay execute byte-identical programs.
type stressOp struct {
	kind uint8
	addr uint64
	size uint64
}

func genStressOps(seed uint64, base uint64, n int) []stressOp {
	g := lcg(seed)
	ops := make([]stressOp, n)
	for i := range ops {
		r := g.next()
		ops[i] = stressOp{
			kind: uint8(r % 8),
			addr: base + (r>>8%256)*64,
			size: 1 + (r>>24)%128,
		}
	}
	return ops
}

// runStressOp executes one op against p on behalf of cpu, reducing the
// outcome to a comparable verdict int.
func runStressOp(t *testing.T, p *Pool, cpu int, op stressOp) int {
	switch op.kind {
	case 0, 1, 2:
		return violationKind(t, p.RegisterCPU(cpu, op.addr, op.size, TagHeap))
	case 3, 4:
		return violationKind(t, p.DropCPU(cpu, op.addr))
	case 5:
		return violationKind(t, p.BoundsCheckCPU(cpu, op.addr, op.addr+op.size/2))
	case 6:
		return violationKind(t, p.LoadStoreCheckCPU(cpu, op.addr))
	default:
		_, _, ok := p.GetBoundsCPU(cpu, op.addr)
		if ok {
			return 1
		}
		return 0
	}
}

// TestConcurrentStressOracle drives 8 VCPUs through random register/drop/
// check programs on disjoint address regions concurrently, then replays
// the identical programs serially against an uncached oracle pool.
// Workers never touch each other's addresses, so every per-worker verdict
// stream is deterministic: the concurrent sharded pool must produce
// bit-identical verdicts and the same final object count as the oracle.
// Run under -race this is also the data-race suite for the sharded write
// paths and the per-VCPU caches.
func TestConcurrentStressOracle(t *testing.T) {
	const workers = 8
	const opsPer = 3000
	p := NewPool("MPS", false, true, 0)
	p.setVCPUs(workers)
	progs := make([][]stressOp, workers)
	verdicts := make([][]int, workers)
	for w := range progs {
		// 16 MiB apart: disjoint regions, several distinct shards.
		progs[w] = genStressOps(uint64(w)*977+13, uint64(w+1)<<24, opsPer)
		verdicts[w] = make([]int, opsPer)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, op := range progs[w] {
				verdicts[w][i] = runStressOp(t, p, w, op)
			}
		}(w)
	}
	wg.Wait()

	oracle := NewPool("MPO", false, true, 0)
	oracle.NoCache = true // splay-only reference
	for w := 0; w < workers; w++ {
		for i, op := range progs[w] {
			want := runStressOp(t, oracle, 0, op)
			if verdicts[w][i] != want {
				t.Fatalf("worker %d op %d (%+v): concurrent verdict %d, oracle %d",
					w, i, op, verdicts[w][i], want)
			}
		}
	}
	if got, want := p.NumObjects(), oracle.NumObjects(); got != want {
		t.Fatalf("final object count: sharded %d, oracle %d", got, want)
	}
	if p.IsQuarantined() {
		t.Fatal("stress run quarantined the pool")
	}
	m := p.mergedStats()
	if m.Violations == 0 || m.Registered == 0 || m.Dropped == 0 {
		t.Fatalf("stress run did not exercise the interesting paths: %+v", m)
	}
}

// TestPerCPUStatsMerge pins the per-VCPU attribution contract: however
// calls are split between VCPUs, the merged snapshot equals the arithmetic
// total — nothing double-counted, nothing dropped — and each VCPU's share
// sits on its own shard.
func TestPerCPUStatsMerge(t *testing.T) {
	p := NewPool("MPM", false, true, 0)
	p.setVCPUs(4)

	for i := uint64(0); i < 10; i++ {
		if err := p.RegisterCPU(0, 0x10000+i*0x100, 64, TagHeap); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 4; i++ {
		if err := p.DropCPU(0, 0x10000+i*0x100); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.BoundsCheckCPU(0, 0x10400, 0x10410); err != nil {
		t.Fatal(err)
	}
	p.NoteElidedBoundsCPU(0)

	for cpu := 1; cpu <= 3; cpu++ {
		base := uint64(cpu) << 24
		for i := uint64(0); i < 5; i++ {
			if err := p.RegisterCPU(cpu, base+i*0x100, 64, TagHeap); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.DropCPU(cpu, base); err != nil {
			t.Fatal(err)
		}
		if err := p.LoadStoreCheckCPU(cpu, base+0x100); err != nil {
			t.Fatal(err)
		}
		p.NoteElidedLSCPU(cpu)
	}

	m := p.mergedStats()
	if m.Registered != 10+3*5 {
		t.Errorf("merged Registered = %d, want %d", m.Registered, 10+3*5)
	}
	if m.Dropped != 4+3 {
		t.Errorf("merged Dropped = %d, want %d", m.Dropped, 4+3)
	}
	if m.BoundsChecks != 1 || m.LSChecks != 3 {
		t.Errorf("merged checks = %d bounds / %d ls, want 1/3", m.BoundsChecks, m.LSChecks)
	}
	if m.ElidedBounds != 1 || m.ElidedLS != 3 {
		t.Errorf("merged elisions = %d bounds / %d ls, want 1/3", m.ElidedBounds, m.ElidedLS)
	}
	if m.Violations != 0 {
		t.Errorf("merged Violations = %d, want 0", m.Violations)
	}
	for cpu, want := range []uint64{10, 5, 5, 5} {
		if got := p.cpus[cpu].st.Registered; got != want {
			t.Errorf("shard %d Registered = %d, want %d", cpu, got, want)
		}
	}
	// The registry snapshot reports the same merged numbers.
	reg := NewRegistry()
	reg.SetVCPUs(4)
	reg.AddPool(p)
	snap := reg.Snapshot()
	if snap.Totals != m {
		t.Errorf("snapshot totals %+v != merged %+v", snap.Totals, m)
	}
	if snap.Pools[0].Objects != p.NumObjects() {
		t.Errorf("snapshot objects %d != %d", snap.Pools[0].Objects, p.NumObjects())
	}
}

// TestRegisterBatch checks sva.pool.regbatch semantics: a batch is exactly
// n per-object registrations, fast path or not.
func TestRegisterBatch(t *testing.T) {
	p := NewPool("MPB", false, true, 0)
	if err := p.RegisterBatchCPU(0, 0x80000, 16, 512); err != nil {
		t.Fatal(err)
	}
	if got := p.NumObjects(); got != 16 {
		t.Fatalf("NumObjects = %d after batch of 16", got)
	}
	// Elements are separate objects: indexing across a boundary violates.
	if err := p.BoundsCheckCPU(0, 0x80000, 0x80000+513); err == nil {
		t.Error("cross-element indexing passed")
	}
	// One past the end of an element is legal.
	if err := p.BoundsCheckCPU(0, 0x80000, 0x80000+512); err != nil {
		t.Errorf("one-past-end within element: %v", err)
	}
	for i := uint64(0); i < 16; i++ {
		if err := p.LoadStoreCheckCPU(0, 0x80000+i*512+7); err != nil {
			t.Errorf("element %d unreachable: %v", i, err)
		}
	}
	// A conflict mid-batch keeps the earlier elements, like the per-object
	// sequence would.
	if err := p.RegisterCPU(0, 0x90000+5*512, 512, TagHeap); err != nil {
		t.Fatal(err)
	}
	err := p.RegisterBatchCPU(0, 0x90000, 16, 512)
	if v, ok := err.(*Violation); !ok || v.Kind != RegistrationConflict {
		t.Fatalf("mid-batch conflict: got %v", err)
	}
	for i := uint64(0); i < 5; i++ {
		if _, ok := p.findCPU(0, 0x90000+i*512); !ok {
			t.Errorf("pre-conflict element %d not registered", i)
		}
	}
	// Oversized batches are refused outright (guest-controlled n).
	err = p.RegisterBatchCPU(0, 0xA00000, maxBatch+1, 16)
	if v, ok := err.(*Violation); !ok || v.Kind != RegistrationConflict {
		t.Fatalf("oversized batch: got %v", err)
	}
	// Degenerate shapes are no-ops.
	if err := p.RegisterBatchCPU(0, 0xB00000, 0, 16); err != nil {
		t.Fatal(err)
	}
	if err := p.RegisterBatchCPU(0, 0xB00000, 4, 0); err != nil {
		t.Fatal(err)
	}

	// Batch-vs-loop equivalence, including with a wide object forcing the
	// slow shape.
	a := NewPool("MPBA", false, true, 0)
	b := NewPool("MPBB", false, true, 0)
	wide := splay.Range{Start: 3 << regionShift, Len: 2 << regionShift}
	if err := a.RegisterCPU(0, wide.Start, wide.Len, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := b.RegisterCPU(0, wide.Start, wide.Len, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterBatchCPU(0, 0x40000, 32, 128); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 32; i++ {
		if err := b.RegisterCPU(0, 0x40000+i*128, 128, TagHeap); err != nil {
			t.Fatal(err)
		}
	}
	if a.NumObjects() != b.NumObjects() {
		t.Fatalf("batch %d objects, loop %d", a.NumObjects(), b.NumObjects())
	}
	for i := uint64(0); i < 32; i++ {
		ra, oka := a.findCPU(0, 0x40000+i*128+3)
		rb, okb := b.findCPU(0, 0x40000+i*128+3)
		if oka != okb || ra != rb {
			t.Fatalf("element %d: batch (%v,%v) loop (%v,%v)", i, ra, oka, rb, okb)
		}
	}
	if a.mergedStats().Batched != 1 {
		t.Errorf("Batched = %d, want 1", a.mergedStats().Batched)
	}
}

// TestRegisterBatchWideConcurrent is the regression for the regbatch gate
// deadlock: with a wide object live, the batch fast path used to fall
// through to the element-at-a-time loop still holding its gate read slot,
// and the loop re-acquires the same slot per element — a recursive RLock.  A concurrent lockAll (wide register/drop) arriving
// between the two acquisitions then deadlocked the VM.  This drives
// batches against wide-object churn on every VCPU and must complete.
func TestRegisterBatchWideConcurrent(t *testing.T) {
	p := NewPool("MPBW", false, true, 0)
	p.setVCPUs(4)
	// A wide object stays live for the whole run so every batch takes the
	// fallback shape.
	if err := p.RegisterCPU(0, 8<<regionShift, 2<<regionShift, TagHeap); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	done := make(chan struct{})
	go func() { // exclusive-gate churn: wide register/drop in a loop
		defer close(done)
		base := uint64(16) << regionShift
		for i := 0; i < rounds; i++ {
			if err := p.RegisterCPU(3, base, 2<<regionShift, TagHeap); err != nil {
				t.Error(err)
				return
			}
			if err := p.DropCPU(3, base); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for cpu := 0; cpu < 3; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			base := 0x100000 + uint64(cpu)*0x40000
			for i := 0; i < rounds; i++ {
				if err := p.RegisterBatchCPU(cpu, base, 16, 64); err != nil {
					t.Error(err)
					return
				}
				for j := uint64(0); j < 16; j++ {
					if err := p.DropCPU(cpu, base+j*64); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(cpu)
	}
	wg.Wait()
	<-done
	if got := p.NumObjects(); got != 1 {
		t.Fatalf("NumObjects = %d after churn, want 1 (the wide object)", got)
	}
}

// TestRegisterBatchGateNotHeldAcrossFallback is the deterministic form of
// the regbatch gate-deadlock regression.  It parks the batch's fallback
// loop on a shard mutex the test holds, lets a lockAll writer queue up on
// the batch CPU's gate slot, then releases the shard.  If the batch still
// held its fast-path read slot across the fallback (the original bug), the
// next element's inner rlock queues behind the writer while the writer
// waits on the outer read hold — a deadlock this test converts into a
// failure instead of a hung VM.
func TestRegisterBatchGateNotHeldAcrossFallback(t *testing.T) {
	p := NewPool("MPBG", false, true, 0)
	p.setVCPUs(4)
	// A live wide object forces every batch into the fallback shape.
	if err := p.RegisterCPU(0, 8<<regionShift, 2<<regionShift, TagHeap); err != nil {
		t.Fatal(err)
	}
	const base = uint64(0x100000)
	sh := &p.obj[shardIndex(base)]
	sh.mu.Lock() // parks element 0's shard insert
	done := make(chan error, 1)
	go func() { done <- p.RegisterBatchCPU(1, base, 8, 64) }()
	time.Sleep(50 * time.Millisecond) // batch now blocked on sh.mu
	gateDone := make(chan struct{})
	go func() {
		p.gate.lockAll()
		p.gate.unlockAll()
		close(gateDone)
	}()
	time.Sleep(50 * time.Millisecond) // writer now pending on slot 1
	sh.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("regbatch deadlocked against lockAll: gate read slot held across the fallback loop")
	}
	<-gateDone
	if got := p.NumObjects(); got != 9 {
		t.Fatalf("NumObjects = %d, want 9 (wide + 8 batch elements)", got)
	}
}

// TestSharedRangeSequencedOracle drives 4 VCPUs through random programs on
// ONE shared 64 KiB range that straddles a region boundary (so some
// objects are wide).  Each operation runs under a test-side mutex — the
// stand-in for guest locking — and is logged in that order; replaying the
// log through the model must reproduce every verdict.  Unlike
// TestConcurrentStressOracle's disjoint regions, VCPUs here routinely drop
// or evict objects that sit in another VCPU's last-hit cache.
func TestSharedRangeSequencedOracle(t *testing.T) {
	const workers, opsPer = 4, 2000
	base := uint64(1)<<regionShift - 0x8000
	p := NewPool("MPX", false, true, 0)
	p.setVCPUs(workers)
	type logged struct {
		op      modelOp
		verdict int
	}
	var mu sync.Mutex
	var log []logged
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := lcg(uint64(w)*7919 + 1)
			for i := 0; i < opsPer; i++ {
				r := g.next()
				op := modelOp{
					kind: [8]uint8{0, 1, 2, 3, 3, 4, 5, 5}[r%8],
					cpu:  w,
					// 64 hot slots of 4 starts each: objects overlap and
					// every VCPU's cache holds objects the others drop.
					addr: base + (r>>8%64)*1024 + (r>>16%4)*32,
					size: 1 + (r>>24)%96,
					n:    1 + (r>>40)%4,
				}
				op.derived = op.addr + op.size/2
				mu.Lock()
				log = append(log, logged{op, op.onPool(t, p)})
				mu.Unlock()
				runtime.Gosched() // interleave the VCPUs even on one host CPU
			}
		}(w)
	}
	wg.Wait()

	m := &model{complete: true}
	for i, l := range log {
		if want := l.op.onModel(m); l.verdict != want {
			t.Fatalf("op %d %+v: pool verdict %d, model %d", i, l.op, l.verdict, want)
		}
	}
	if got, want := p.NumObjects(), m.t.Len(); got != want {
		t.Fatalf("final object count: pool %d, model %d", got, want)
	}
	s := p.mergedStats()
	if s.Dropped == 0 || s.CacheHits == 0 || s.Violations == 0 {
		t.Fatalf("run did not exercise drops, cache hits and violations: %+v", s)
	}
}
