package metapool

import (
	"errors"
	"testing"
	"testing/quick"
)

// opStep is one randomly generated pool operation.  Kind selects the
// operation; A and B are squashed into small address/size ranges so the
// random stream actually produces overlaps, re-drops and cache hits.
type opStep struct {
	Kind uint8
	A, B uint16
}

func (s opStep) addr() uint64 { return 0x1000 + uint64(s.A%64)*16 }
func (s opStep) size() uint64 { return 1 + uint64(s.B%96) }

// violationKind reduces an op result to a comparable shape: -1 for
// success, the Violation kind otherwise.
func violationKind(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return -1
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("non-violation error: %v", err)
	}
	return int(v.Kind)
}

// TestQuickCacheMatchesReference drives a cached pool and an uncached
// reference pool through identical random register/drop/check
// interleavings and requires identical answers at every step.  This is
// the safety argument for the last-hit cache: it may only change how an
// answer is found, never the answer.
func TestQuickCacheMatchesReference(t *testing.T) {
	prop := func(steps []opStep) bool {
		cached := NewPool("MPC", false, true, 0)
		ref := NewPool("MPR", false, true, 0)
		ref.NoCache = true
		for i, s := range steps {
			addr, size := s.addr(), s.size()
			var kc, kr int
			switch s.Kind % 6 {
			case 0:
				kc = violationKind(t, cached.RegisterCPU(0, addr, size, TagHeap))
				kr = violationKind(t, ref.RegisterCPU(0, addr, size, TagHeap))
			case 1:
				kc = violationKind(t, cached.RegisterStackCPU(0, addr, size))
				kr = violationKind(t, ref.RegisterStackCPU(0, addr, size))
			case 2:
				kc = violationKind(t, cached.DropCPU(0, addr))
				kr = violationKind(t, ref.DropCPU(0, addr))
			case 3:
				derived := addr + uint64(s.B%128)
				kc = violationKind(t, cached.BoundsCheckCPU(0, addr, derived))
				kr = violationKind(t, ref.BoundsCheckCPU(0, addr, derived))
			case 4:
				kc = violationKind(t, cached.LoadStoreCheckCPU(0, addr))
				kr = violationKind(t, ref.LoadStoreCheckCPU(0, addr))
			case 5:
				cs, ce, cok := cached.GetBoundsCPU(0, addr)
				rs, re, rok := ref.GetBoundsCPU(0, addr)
				if cs != rs || ce != re || cok != rok {
					t.Logf("step %d: GetBounds(%#x) cached=(%#x,%#x,%v) ref=(%#x,%#x,%v)",
						i, addr, cs, ce, cok, rs, re, rok)
					return false
				}
			}
			if kc != kr {
				t.Logf("step %d: op %d at %#x+%d cached=%d ref=%d",
					i, s.Kind%6, addr, size, kc, kr)
				return false
			}
			if cached.NumObjects() != ref.NumObjects() {
				t.Logf("step %d: objects cached=%d ref=%d",
					i, cached.NumObjects(), ref.NumObjects())
				return false
			}
		}
		// The reference never touches the cache; the cached pool's
		// counters must reconcile with its actual tree traffic.
		if ref.cpus[0].st.CacheHits != 0 {
			t.Logf("reference pool used the cache")
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
