package metapool

import (
	"testing"

	"sva/internal/splay"
)

// model is the metapool's specification, written independently of the
// sharded implementation: one splay tree, no region shards, no wide tree,
// no cache.  Its methods return the verdict a Pool must give for the same
// operation — -1 for success, the ViolationKind otherwise — and apply the
// same conflict and eviction rules:
//
//   - a registration overlapping any live object is a conflict, except
//     that a stack registration evicts overlapping stale stack frames when
//     every overlapping object is one (all-or-nothing);
//   - a wrapping range is a conflict; a zero-sized one registers nothing;
//   - a batch is its elements registered in order, stopping at the first
//     conflict, and more than maxBatch elements is a conflict outright.
type model struct {
	t        splay.Tree
	complete bool
}

func (m *model) register(rg splay.Range, stack bool) int {
	if rg.Len == 0 {
		return -1
	}
	if rg.Start+rg.Len < rg.Start {
		return int(RegistrationConflict)
	}
	over := m.t.OverlapRanges(rg.Start, rg.Len, 0)
	for _, r := range over {
		if !stack || r.Tag != TagStack {
			return int(RegistrationConflict)
		}
	}
	for _, r := range over {
		m.t.Remove(r.Start)
	}
	m.t.Insert(rg)
	return -1
}

func (m *model) batch(base, n, esize uint64) int {
	if n == 0 || esize == 0 {
		return -1
	}
	if n > maxBatch {
		return int(RegistrationConflict)
	}
	for i := uint64(0); i < n; i++ {
		if k := m.register(splay.Range{Start: base + i*esize, Len: esize, Tag: TagHeap}, false); k != -1 {
			return k
		}
	}
	return -1
}

func (m *model) drop(addr uint64) int {
	if _, ok := m.t.FindStart(addr); !ok {
		return int(IllegalFree)
	}
	m.t.Remove(addr)
	return -1
}

func (m *model) bounds(src, derived uint64) int {
	if r, ok := m.t.Find(src); ok {
		if derived >= r.Start && derived <= r.End() {
			return -1
		}
		return int(BoundsViolation)
	}
	if _, ok := m.t.Find(derived); ok || m.complete {
		return int(BoundsViolation)
	}
	return -1
}

func (m *model) lscheck(addr uint64) int {
	if _, ok := m.t.Find(addr); ok || !m.complete {
		return -1
	}
	return int(LoadStoreViolation)
}

// modelOp is one decoded pool operation, runnable against both a Pool and
// the model.
type modelOp struct {
	kind    uint8 // see onPool
	cpu     int
	addr    uint64
	size    uint64 // object size; element size for a batch
	n       uint64 // batch element count
	derived uint64
}

// onPool executes op on p and returns its verdict.
func (op modelOp) onPool(t *testing.T, p *Pool) int {
	switch op.kind {
	case 0:
		return violationKind(t, p.RegisterCPU(op.cpu, op.addr, op.size, TagHeap))
	case 1:
		return violationKind(t, p.RegisterStackCPU(op.cpu, op.addr, op.size))
	case 2:
		return violationKind(t, p.RegisterBatchCPU(op.cpu, op.addr, op.n, op.size))
	case 3:
		return violationKind(t, p.DropCPU(op.cpu, op.addr))
	case 4:
		return violationKind(t, p.BoundsCheckCPU(op.cpu, op.addr, op.derived))
	default:
		return violationKind(t, p.LoadStoreCheckCPU(op.cpu, op.addr))
	}
}

// onModel executes op on m and returns the specified verdict.
func (op modelOp) onModel(m *model) int {
	switch op.kind {
	case 0:
		return m.register(splay.Range{Start: op.addr, Len: op.size, Tag: TagHeap}, false)
	case 1:
		return m.register(splay.Range{Start: op.addr, Len: op.size, Tag: TagStack}, true)
	case 2:
		return m.batch(op.addr, op.n, op.size)
	case 3:
		return m.drop(op.addr)
	case 4:
		return m.bounds(op.addr, op.derived)
	default:
		return m.lscheck(op.addr)
	}
}

// decodeOp turns 4 fuzz bytes into an operation.  Addresses are squashed
// into a 2 KiB window around one of two region boundaries, so operations
// overlap constantly and objects crossing the boundary are wide; a few
// encodings reach multi-region sizes and the top of the address space.
func decodeOp(b []byte) modelOp {
	op := modelOp{kind: b[0] % 6, cpu: int(b[0]>>3) & 3}
	boundary := uint64(1+b[1]&1) << regionShift
	op.addr = boundary - 1024 + uint64(b[1]>>1)*16
	if b[1] == 0xFF {
		op.addr = ^uint64(0) - 255 // registrations here wrap
	}
	op.size = uint64(b[2]) * 8
	if b[2] > 250 {
		op.size = uint64(b[2]-250) << 21 // 2–10 MiB: spans regions
	}
	op.n = uint64(b[3] % 9)
	if b[3] == 0xFF {
		op.n = maxBatch + 1
	}
	if op.kind == 2 {
		op.size = uint64(b[2]%32) * 8 // batch element size, 0 allowed
	}
	op.derived = op.addr - 512 + uint64(b[3])*4
	return op
}

// FuzzPoolOps runs decoded operation streams against a 4-VCPU Pool and the
// model and requires identical verdicts at every step, identical final
// object counts, and Registered − Dropped equal to the live object count
// (every removal of a registration is counted).
func FuzzPoolOps(f *testing.F) {
	f.Add([]byte{1, 0x10, 0x20, 0x00, 9, 0x10, 0x20, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		complete := data[0]&0x80 == 0
		p := NewPool("MPZ", false, complete, 0)
		p.setVCPUs(4)
		m := &model{complete: complete}
		for i := 1; i+4 <= len(data); i += 4 {
			op := decodeOp(data[i : i+4])
			if got, want := op.onPool(t, p), op.onModel(m); got != want {
				t.Fatalf("op %d %+v: pool verdict %d, model %d", i/4, op, got, want)
			}
		}
		if got, want := p.NumObjects(), m.t.Len(); got != want {
			t.Fatalf("NumObjects = %d, model %d", got, want)
		}
		if s := p.mergedStats(); s.Registered-s.Dropped != uint64(p.NumObjects()) {
			t.Fatalf("Registered %d − Dropped %d != %d live objects",
				s.Registered, s.Dropped, p.NumObjects())
		}
	})
}
