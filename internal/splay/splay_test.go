package splay

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertFind(t *testing.T) {
	var tr Tree
	if !tr.Insert(Range{Start: 100, Len: 16}) {
		t.Fatal("insert failed")
	}
	if !tr.Insert(Range{Start: 200, Len: 8}) {
		t.Fatal("insert failed")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for _, addr := range []uint64{100, 107, 115} {
		r, ok := tr.Find(addr)
		if !ok || r.Start != 100 {
			t.Errorf("Find(%d) = %v, %v", addr, r, ok)
		}
	}
	for _, addr := range []uint64{99, 116, 199, 208, 0} {
		if _, ok := tr.Find(addr); ok {
			t.Errorf("Find(%d) unexpectedly succeeded", addr)
		}
	}
	if r, ok := tr.Find(207); !ok || r.Start != 200 {
		t.Errorf("Find(207) = %v, %v", r, ok)
	}
}

func TestInsertRejectsOverlap(t *testing.T) {
	var tr Tree
	tr.Insert(Range{Start: 100, Len: 16})
	overlaps := []Range{
		{Start: 100, Len: 16}, // identical
		{Start: 90, Len: 11},  // crosses start
		{Start: 115, Len: 2},  // crosses end
		{Start: 104, Len: 4},  // inside
		{Start: 90, Len: 100}, // encloses
	}
	for _, r := range overlaps {
		if tr.Insert(r) {
			t.Errorf("Insert(%v) should have been rejected", r)
		}
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after rejected inserts", tr.Len())
	}
	// Adjacent (touching) ranges are fine.
	if !tr.Insert(Range{Start: 116, Len: 4}) {
		t.Error("adjacent range rejected")
	}
	if !tr.Insert(Range{Start: 96, Len: 4}) {
		t.Error("adjacent range rejected")
	}
}

func TestInsertRejectsDegenerate(t *testing.T) {
	var tr Tree
	if tr.Insert(Range{Start: 5, Len: 0}) {
		t.Error("zero-length range accepted")
	}
	if tr.Insert(Range{Start: ^uint64(0) - 1, Len: 10}) {
		t.Error("wrapping range accepted")
	}
}

func TestRemove(t *testing.T) {
	var tr Tree
	for i := 0; i < 10; i++ {
		tr.Insert(Range{Start: uint64(i * 100), Len: 50})
	}
	r, ok := tr.Remove(325) // inside [300,350)
	if !ok || r.Start != 300 {
		t.Fatalf("Remove(325) = %v, %v", r, ok)
	}
	if _, ok := tr.Find(325); ok {
		t.Error("removed range still found")
	}
	if tr.Len() != 9 {
		t.Errorf("Len = %d", tr.Len())
	}
	if _, ok := tr.Remove(325); ok {
		t.Error("double remove succeeded")
	}
	// All others still present.
	for i := 0; i < 10; i++ {
		if i == 3 {
			continue
		}
		if _, ok := tr.Find(uint64(i*100) + 10); !ok {
			t.Errorf("range %d missing after unrelated remove", i)
		}
	}
}

func TestFindStart(t *testing.T) {
	var tr Tree
	tr.Insert(Range{Start: 64, Len: 32})
	if _, ok := tr.FindStart(64); !ok {
		t.Error("FindStart(64) failed")
	}
	if _, ok := tr.FindStart(65); ok {
		t.Error("FindStart(65) should fail: interior pointer is not object start")
	}
}

// freeLen counts the recycled nodes on the free list.
func (t *Tree) freeLen() int {
	n := 0
	for f := t.free; f != nil; f = f.left {
		n++
	}
	return n
}

// TestRefusedInsertKeepsFreeNode: an Insert refused by the neighbour
// overlap check must not consume a recycled node, so a refused insert
// followed by an insert/remove cycle (the metapool's stale-stack eviction
// shape) runs without touching the host allocator.
func TestRefusedInsertKeepsFreeNode(t *testing.T) {
	var tr Tree
	tr.Insert(Range{Start: 100, Len: 16})
	tr.Insert(Range{Start: 200, Len: 8})
	tr.Insert(Range{Start: 300, Len: 8})
	tr.Remove(300)
	if got := tr.freeLen(); got != 1 {
		t.Fatalf("free list holds %d nodes after one remove, want 1", got)
	}
	// Splaying 116 leaves [100,116) at the root, so the refusal comes from
	// the right neighbour [200,208).
	if tr.Insert(Range{Start: 116, Len: 90}) {
		t.Fatal("insert overlapping the right neighbour accepted")
	}
	if got := tr.freeLen(); got != 1 {
		t.Fatalf("free list holds %d nodes after a refused insert, want 1", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if tr.Insert(Range{Start: 116, Len: 90}) {
			t.Fatal("insert overlapping the right neighbour accepted")
		}
		if !tr.Insert(Range{Start: 400, Len: 8}) {
			t.Fatal("insert of a free range refused")
		}
		tr.Remove(400)
	})
	if allocs != 0 {
		t.Errorf("refused insert + insert/remove cycle allocates %v times per run, want 0", allocs)
	}
}

// refModel is a trivially correct reference: a slice of ranges.
type refModel []Range

func (m refModel) find(addr uint64) (Range, bool) {
	for _, r := range m {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Range{}, false
}

func (m refModel) findStart(addr uint64) (Range, bool) {
	for _, r := range m {
		if r.Start == addr {
			return r, true
		}
	}
	return Range{}, false
}

func (m refModel) overlaps(r Range) bool {
	for _, x := range m {
		if rangesOverlap(x, r) {
			return true
		}
	}
	return false
}

// overlapRanges is OverlapRanges' specification: every range sharing an
// address with [start, start+length) — a wrapping end clamps to the top of
// the address space — in ascending start order, cut to the first max
// (max 0: all of them).
func (m refModel) overlapRanges(start, length uint64, max int) []Range {
	end := start + length
	if end < start {
		end = ^uint64(0)
	}
	var out []Range
	for _, x := range m {
		if x.Start < end && start < x.End() {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// TestQuickAgainstReference drives random operation sequences against the
// splay tree and the reference model and checks they agree.  A few
// addresses sit at the top of the address space, so inserts and overlap
// probes there wrap past 2^64.
func TestQuickAgainstReference(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		addr := func() uint64 {
			if rng.Intn(8) == 0 {
				return ^uint64(0) - uint64(rng.Intn(64))
			}
			return uint64(rng.Intn(1100))
		}
		var tr Tree
		var ref refModel
		for op := 0; op < 300; op++ {
			switch rng.Intn(6) {
			case 0, 1: // insert
				r := Range{Start: addr(), Len: uint64(1 + rng.Intn(20))}
				got := tr.Insert(r)
				want := !ref.overlaps(r) && r.End() > r.Start
				if got != want {
					t.Logf("seed %d: Insert(%v) = %v, want %v", seed, r, got, want)
					return false
				}
				if got {
					ref = append(ref, r)
				}
			case 2: // find
				a := addr()
				gr, gok := tr.Find(a)
				wr, wok := ref.find(a)
				if gok != wok || (gok && gr != wr) {
					t.Logf("seed %d: Find(%d) = %v,%v want %v,%v", seed, a, gr, gok, wr, wok)
					return false
				}
			case 3: // remove
				a := addr()
				gr, gok := tr.Remove(a)
				wr, wok := ref.find(a)
				if gok != wok || (gok && gr != wr) {
					t.Logf("seed %d: Remove(%d) = %v,%v want %v,%v", seed, a, gr, gok, wr, wok)
					return false
				}
				if wok {
					for i, x := range ref {
						if x == wr {
							ref = append(ref[:i], ref[i+1:]...)
							break
						}
					}
				}
			case 4: // find by start: interior addresses must miss
				a := addr()
				if rng.Intn(2) == 0 && len(ref) > 0 {
					a = ref[rng.Intn(len(ref))].Start
				}
				gr, gok := tr.FindStart(a)
				wr, wok := ref.findStart(a)
				if gok != wok || (gok && gr != wr) {
					t.Logf("seed %d: FindStart(%d) = %v,%v want %v,%v", seed, a, gr, gok, wr, wok)
					return false
				}
			case 5: // overlap probe, possibly wrapping, with max 0..3
				start := addr()
				length := uint64(1 + rng.Intn(200))
				if rng.Intn(4) == 0 {
					length = ^uint64(0) - uint64(rng.Intn(2000)) // end wraps
				}
				max := rng.Intn(4)
				lk := tr.Lookups
				got := tr.OverlapRanges(start, length, max)
				want := ref.overlapRanges(start, length, max)
				if len(got) != len(want) {
					t.Logf("seed %d: OverlapRanges(%d,%d,%d) = %v want %v", seed, start, length, max, got, want)
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						t.Logf("seed %d: OverlapRanges(%d,%d,%d) = %v want %v", seed, start, length, max, got, want)
						return false
					}
				}
				if tr.Lookups != lk {
					t.Logf("seed %d: OverlapRanges counted a lookup", seed)
					return false
				}
			}
			if tr.Len() != len(ref) {
				t.Logf("seed %d: Len = %d, want %d", seed, tr.Len(), len(ref))
				return false
			}
		}
		// Final sweep: every model range findable at every boundary.
		for _, r := range ref {
			if got, ok := tr.Find(r.Start); !ok || got != r {
				return false
			}
			if got, ok := tr.Find(r.End() - 1); !ok || got != r {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkFindHot(b *testing.B) {
	var tr Tree
	for i := 0; i < 1000; i++ {
		tr.Insert(Range{Start: uint64(i * 64), Len: 48})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Hot lookup of the same object: the splay-to-root case that makes
		// per-pool trees fast in SAFECode.
		tr.Find(32000 + 16)
	}
}

func BenchmarkFindUniform(b *testing.B) {
	var tr Tree
	for i := 0; i < 1000; i++ {
		tr.Insert(Range{Start: uint64(i * 64), Len: 48})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Find(uint64((i * 2654435761) % 64000))
	}
}
