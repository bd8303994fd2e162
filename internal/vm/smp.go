package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sva/internal/hw"
)

// This file implements SMP: several virtual CPUs (host goroutines) driving
// one simulated machine.  The memory model (DESIGN.md §13):
//
//   - Kernel image, metapools, devices, intrinsic/handler tables, the
//     saved-state tables and the translation cache (compiled functions and
//     GEP plans; engineCache in translate.go) are shared by reference — a
//     function translates once per machine, and every VCPU dispatches the
//     same compiled closures.  Cache reads are lock-free sync.Map loads;
//     builds serialize on eng.mu, a leaf lock never held across a guest
//     instruction.
//   - Processor state (CPU), the execution stack (cur), counters and fault
//     logs are private per VCPU — no lock on any interpreter hot path.
//   - Lock order (outermost first): shared.atomics → stateMu → device
//     mutexes.  Metapool internals take their own write lock below all of
//     these and never call back out; eng.mu nests below everything (its
//     holder only evaluates constants and inspects IR).

// MaxVCPUs bounds EnableSMP.  The guest kernel sizes its per-CPU arrays
// (current_task, sched_target) to match.
const MaxVCPUs = 32

// smpShared is the state every virtual CPU of one machine shares.
type smpShared struct {
	// atomics serializes guest atomic read-modify-write instructions
	// (cmpxchg, atomicrmw) across VCPUs, making them guest-atomic.
	atomics sync.Mutex
	// halted/exitCode latch the first sva.halt; every VCPU observes the
	// latch at its next interrupt poll (within 64 steps).
	halted   atomic.Bool
	exitCode atomic.Uint64
	vcpus    []*VM
}

// CPUID returns this virtual CPU's index (0 on the boot CPU).
func (vm *VM) CPUID() int { return vm.cpuID }

// VCPUs returns every virtual CPU of the machine, boot CPU first (just the
// receiver on a uniprocessor VM).
func (vm *VM) VCPUs() []*VM {
	if vm.shared == nil {
		return []*VM{vm}
	}
	return vm.shared.vcpus
}

// EnableSMP turns the boot VM into an n-way SMP machine and returns all n
// virtual CPUs (index 0 is the receiver).  Call after the kernel image is
// loaded and before launching the VCPUs; n == 1 is a no-op that returns
// just the receiver, keeping the uniprocessor path bit-identical.
func (vm *VM) EnableSMP(n int) ([]*VM, error) {
	if vm.cpuID != 0 {
		return nil, fmt.Errorf("vm: EnableSMP on non-boot VCPU %d", vm.cpuID)
	}
	if vm.shared != nil {
		return nil, fmt.Errorf("vm: EnableSMP called twice")
	}
	if n < 1 || n > MaxVCPUs {
		return nil, fmt.Errorf("vm: EnableSMP with %d CPUs (max %d)", n, MaxVCPUs)
	}
	if n == 1 {
		return []*VM{vm}, nil
	}
	sh := &smpShared{vcpus: make([]*VM, n)}
	sh.vcpus[0] = vm
	vm.shared = sh
	for i := 1; i < n; i++ {
		sh.vcpus[i] = vm.newVCPU(i)
	}
	vm.Pools.SetVCPUs(n)
	vm.Mach.EnableSMP(n)
	return sh.vcpus, nil
}

// newVCPU clones the boot VM into a sibling virtual CPU.  Shared by
// reference: machine, pools, module tables, intrinsics, syscall/interrupt
// handlers, saved states (stateMu-guarded), the translation cache (the
// struct copy carries the eng pointer, so siblings reuse — never rebuild —
// compiled functions), chaos injector.  Private: processor state,
// execution stack, counters, violation/fault logs, profiler/trace lanes.
func (vm *VM) newVCPU(id int) *VM {
	cp := *vm
	v := &cp
	v.CPU = hw.NewCPU()
	v.cpuID = id
	v.cur = nil
	v.Counters = Counters{}
	v.Violations = nil
	v.FaultLog = nil
	v.syscallCounts = map[int64]uint64{}
	v.syscallCountsDense = [denseSyscalls]uint64{}
	v.prof = nil
	v.trace = nil
	v.oopsStreak = 0
	v.Halted = false
	v.ExitCode = 0
	v.pendingCallSets = nil
	// Per-VCPU scratch: the struct copy must not share the boot CPU's
	// lock-free translation memo or argument buffer.
	v.tcache = nil
	v.tcGen = 0
	v.argbuf = nil
	v.hargs = nil
	v.membuf = nil
	return v
}

// RunResult is one virtual CPU's outcome from RunAll.
type RunResult struct {
	Ret uint64
	Err error
}

// RunAll runs every VCPU's installed execution state concurrently and
// waits for all of them.  VCPUs with no installed state (cur == nil) are
// skipped with a zero result, so callers may dispatch work to a subset.
func RunAll(vcpus []*VM) []RunResult {
	res := make([]RunResult, len(vcpus))
	var wg sync.WaitGroup
	for i, v := range vcpus {
		if v.Exec() == nil {
			continue
		}
		wg.Add(1)
		go func(i int, v *VM) {
			defer wg.Done()
			ret, err := v.Run()
			res[i] = RunResult{Ret: ret, Err: err}
		}(i, v)
	}
	wg.Wait()
	return res
}

// MergedViolations returns every VCPU's recorded safety violations
// (the per-CPU logs are private; campaigns and tests read the union).
func (vm *VM) MergedViolations() int {
	n := 0
	for _, v := range vm.VCPUs() {
		n += len(v.Violations)
	}
	return n
}
