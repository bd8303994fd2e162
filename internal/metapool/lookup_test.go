package metapool

import (
	"errors"
	"sync"
	"testing"
)

// pageSize is one guest page.
const pageSize = 4096

// TestPageStraddlingObject pins lookups for an object that crosses page
// boundaries: every address in it answers for the one object (the first
// lookup descends the tree, the rest hit the last-hit cache), and after the
// drop no address in it passes.
func TestPageStraddlingObject(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	// Tail of page 1, all of pages 2–3, head of page 4.
	start, size := uint64(0x1F00), uint64(2*pageSize+0x200)
	if err := p.RegisterCPU(0, start, size, TagHeap); err != nil {
		t.Fatal(err)
	}
	lk0 := p.SplayLookups()
	for _, a := range []uint64{start, 0x2000, 0x2FFF, 0x3000, start + size - 1} {
		if err := p.LoadStoreCheckCPU(0, a); err != nil {
			t.Errorf("lscheck(%#x) inside straddling object: %v", a, err)
		}
	}
	if got := p.SplayLookups() - lk0; got != 1 {
		t.Errorf("splay lookups = %d, want 1 (the cache answers the other pages)", got)
	}
	for _, a := range []uint64{start - 1, start + size} {
		if err := p.LoadStoreCheckCPU(0, a); err == nil {
			t.Errorf("lscheck(%#x) just outside straddling object passed", a)
		}
	}
	if err := p.DropCPU(0, start); err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{start, 0x2000, 0x3000, start + size - 1} {
		if err := p.LoadStoreCheckCPU(0, a); err == nil {
			t.Errorf("lscheck(%#x) passed after drop (stale cache entry)", a)
		}
	}
}

// TestReRegistrationAfterFree pins the free/re-register cycle at one
// address: the new object's bounds — not the old one's — must govern every
// later check, including via any cached or mapped state.
func TestReRegistrationAfterFree(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	if err := p.RegisterCPU(0, 0x7000, 256, TagHeap); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x7080); err != nil { // warm the cache
		t.Fatal(err)
	}
	if err := p.DropCPU(0, 0x7000); err != nil {
		t.Fatal(err)
	}
	// Re-register at the same address with a smaller size.
	if err := p.RegisterCPU(0, 0x7000, 64, TagHeap); err != nil {
		t.Fatalf("re-registration after free: %v", err)
	}
	if err := p.LoadStoreCheckCPU(0, 0x7020); err != nil {
		t.Errorf("inside re-registered object: %v", err)
	}
	// 0x7080 was inside the OLD object but is outside the new one; a stale
	// cache entry would wrongly pass it.
	if err := p.LoadStoreCheckCPU(0, 0x7080); err == nil {
		t.Error("address beyond re-registered object passed (stale bounds)")
	}
	if s, e, ok := p.GetBoundsCPU(0, 0x7000); !ok || s != 0x7000 || e != 0x7040 {
		t.Errorf("GetBounds after re-registration = %#x,%#x,%v", s, e, ok)
	}
}

// TestResetMidLookup drives concurrent checks against pool resets and
// re-registrations.  Checks racing a reset may get either verdict (the
// guest raced its own teardown), but the pool must stay internally
// consistent: no panic, no quarantine, and once the writer quiesces every
// reader sees the final object set.
func TestResetMidLookup(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.setVCPUs(4)
	if err := p.RegisterCPU(0, 0x9000, 128, TagHeap); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for cpu := 1; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Verdicts may be racy; classification must stay sane.
				if err := p.LoadStoreCheckCPU(cpu, 0x9040); err != nil {
					var v *Violation
					if !errors.As(err, &v) || v.Kind != LoadStoreViolation {
						t.Errorf("racy lscheck: %v", err)
						return
					}
				}
				p.GetBoundsCPU(cpu, 0x9040)
			}
		}(cpu)
	}
	for i := 0; i < 200; i++ {
		p.Reset()
		if err := p.RegisterCPU(0, 0x9000, 128, TagHeap); err != nil {
			t.Errorf("re-register after reset: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if p.IsQuarantined() {
		t.Fatal("pool quarantined by reset/lookup race")
	}
	// Writer quiescent: every VCPU must now see the final object set.
	for cpu := 0; cpu < 4; cpu++ {
		if err := p.LoadStoreCheckCPU(cpu, 0x9040); err != nil {
			t.Errorf("cpu %d post-race lscheck: %v", cpu, err)
		}
		if err := p.LoadStoreCheckCPU(cpu, 0xA000); err == nil {
			t.Errorf("cpu %d post-race miss passed", cpu)
		}
	}
}

// TestConcurrentLookupsRegisterDrop exercises the read-mostly protocol
// end to end: four VCPUs check disjoint hot objects while the writer registers and drops cold objects elsewhere.  Hot verdicts must
// never waver — the hot objects are not being mutated, so concurrent
// registration of OTHER objects must be invisible to them.
func TestConcurrentLookupsRegisterDrop(t *testing.T) {
	p := NewPool("MP1", false, true, 0)
	p.setVCPUs(5) // VCPUs 0–3 read, VCPU 4 writes
	for cpu := 0; cpu < 4; cpu++ {
		if err := p.RegisterCPU(0, 0x100000+uint64(cpu)*pageSize, 512, TagHeap); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			hot := 0x100000 + uint64(cpu)*pageSize
			for i := 0; i < 5000; i++ {
				if err := p.LoadStoreCheckCPU(cpu, hot+uint64(i%512)); err != nil {
					t.Errorf("cpu %d: hot object verdict wavered: %v", cpu, err)
					return
				}
				if err := p.BoundsCheckCPU(cpu, hot, hot+256); err != nil {
					t.Errorf("cpu %d: hot bounds wavered: %v", cpu, err)
					return
				}
			}
		}(cpu)
	}
	// Writer: churn cold objects in a distant address range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			a := 0x200000 + uint64(i%64)*pageSize
			if err := p.RegisterCPU(4, a, 4096+64, TagHeap); err != nil { // straddles
				t.Errorf("writer register: %v", err)
				return
			}
			if err := p.DropCPU(4, a); err != nil {
				t.Errorf("writer drop: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	merged := p.mergedStats()
	if merged.Violations != 0 {
		t.Errorf("violations = %d, want 0", merged.Violations)
	}
}

// benchPool builds a pool with n small objects spread one per page.
func benchPool(b *testing.B, n int, noCache bool) (*Pool, []uint64) {
	b.Helper()
	p := NewPool("BM", false, true, 0)
	p.NoCache = noCache
	addrs := make([]uint64, n)
	for i := 0; i < n; i++ {
		a := 0x10000 + uint64(i)*pageSize
		if err := p.RegisterCPU(0, a, 256, TagHeap); err != nil {
			b.Fatal(err)
		}
		addrs[i] = a + 64
	}
	return p, addrs
}

var lookupConfigs = []struct {
	name    string
	noCache bool
}{{"cached", false}, {"uncached", true}}

// BenchmarkLookup measures hits on a wide working set (1024 hot objects —
// far beyond the 2-entry last-hit cache, the regime §7.1.3 identifies as
// dominant), so both configurations pay a tree descent per lookup.
func BenchmarkLookup(b *testing.B) {
	for _, cfg := range lookupConfigs {
		b.Run(cfg.name, func(b *testing.B) {
			p, addrs := benchPool(b, 1024, cfg.noCache)
			// Stride coprime with len(addrs) so consecutive lookups hit
			// different objects (defeats the cache's locality).
			b.ResetTimer()
			idx := 0
			for i := 0; i < b.N; i++ {
				if err := p.LoadStoreCheckCPU(0, addrs[idx]); err != nil {
					b.Fatal(err)
				}
				idx += 7
				if idx >= len(addrs) {
					idx -= len(addrs)
				}
			}
		})
	}
}

// BenchmarkLookupMiss measures definitive-miss cost: a full tree descent
// plus rotation (the cache holds only positive answers).
func BenchmarkLookupMiss(b *testing.B) {
	for _, cfg := range lookupConfigs {
		b.Run(cfg.name, func(b *testing.B) {
			inc := NewPool("INC", false, false, 0) // incomplete: misses pass
			inc.NoCache = cfg.noCache
			for i := 0; i < 1024; i++ {
				if err := inc.RegisterCPU(0, 0x10000+uint64(i)*pageSize, 256, TagHeap); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := 0x10000 + uint64(i%1024)*pageSize + 2048 // gap: always a miss
				if err := inc.LoadStoreCheckCPU(0, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLookupParallel measures lookup scalability: all VCPUs hammer
// checks concurrently.  Lookups in one region shard serialize on that
// shard's mutex.
func BenchmarkLookupParallel(b *testing.B) {
	for _, cfg := range lookupConfigs {
		b.Run(cfg.name, func(b *testing.B) {
			p, addrs := benchPool(b, 1024, cfg.noCache)
			p.setVCPUs(8)
			var next int32
			var mu sync.Mutex
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				cpu := int(next) % 8
				next++
				mu.Unlock()
				idx := cpu * 131
				for pb.Next() {
					if err := p.LoadStoreCheckCPU(cpu, addrs[idx%len(addrs)]); err != nil {
						b.Error(err)
						return
					}
					idx += 7
				}
			})
		})
	}
}
