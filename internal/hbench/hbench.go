// Package hbench reproduces the HBench-OS microbenchmarks the paper uses
// for Tables 7 and 8: system-call latencies (getpid, getrusage,
// gettimeofday, open/close, sbrk, sigaction, write, pipe, fork, fork+exec)
// and raw kernel bandwidths (file read and pipe transfer at 32/64/128 KB).
// The benchmark programs run as guest user processes; the host harness
// measures wall-clock time across the four kernel configurations and
// reports relative overheads, which is the shape the paper's tables carry.
package hbench

import (
	"fmt"
	"time"

	"sva/internal/ir"
	"sva/internal/kernel"
	"sva/internal/userland"
	"sva/internal/vm"
)

// BuildBenchModule emits every microbenchmark program.
func BuildBenchModule() *userland.U {
	u := userland.New("hbench")
	b := u.B

	loop := func(name string, body func(i ir.Value)) {
		u.Prog(name)
		b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), body)
		b.Ret(ir.I64c(0))
	}

	// --- latencies (Table 7) ---------------------------------------------

	loop("lat_getpid", func(i ir.Value) { u.GetPID() })

	u.Prog("lat_getrusage")
	ru := b.Alloca(ir.ArrayOf(4, ir.I64), "ru")
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.GetRusage(u.Addr(ru))
	})
	b.Ret(ir.I64c(0))

	u.Prog("lat_gettimeofday")
	tv := b.Alloca(ir.ArrayOf(2, ir.I64), "tv")
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.GetTimeofday(u.Addr(tv))
	})
	b.Ret(ir.I64c(0))

	fname := u.StrGlobal("s_bench_file", "/tmp/bench")
	u.Prog("lat_openclose")
	fd0 := u.Open(fname(), 64) // create once
	u.Close(fd0)
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		fd := u.Open(fname(), 0)
		u.Close(fd)
	})
	b.Ret(ir.I64c(0))

	loop("lat_sbrk", func(i ir.Value) { u.Sbrk(ir.I64c(0)) })

	u.Prog("lat_sigaction")
	h := b.PtrToInt(u.M.Func("lat_getpid"), ir.I64) // any handler address
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.Sigaction(ir.I64c(12), h)
	})
	b.Ret(ir.I64c(0))

	u.Prog("lat_write")
	wfd0 := u.Open(fname(), 64|512)
	buf := b.Alloca(ir.ArrayOf(8, ir.I8), "b")
	b.Store(ir.I8c('x'), b.Index(buf, ir.I32c(0)))
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.Lseek(wfd0, ir.I64c(0), ir.I64c(0))
		u.Write(wfd0, u.Addr(buf), ir.I64c(1))
	})
	u.Close(wfd0)
	b.Ret(ir.I64c(0))

	// lat_pipe: round-trip a byte between parent and child over two pipes
	// (HBench-OS lat_pipe).
	u.Prog("lat_pipe")
	p1 := b.Alloca(ir.ArrayOf(2, ir.I64), "p1")
	p2 := b.Alloca(ir.ArrayOf(2, ir.I64), "p2")
	prc1 := u.Pipe(u.Addr(p1))
	prc2 := u.Pipe(u.Addr(p2))
	pbad := b.ICmp(ir.PredNE, b.Add(prc1, prc2), ir.I64c(0))
	b.If(pbad, func() { b.Ret(ir.I64c(-10)) })
	r1 := b.Load(b.Index(p1, ir.I32c(0)))
	w1 := b.Load(b.Index(p1, ir.I32c(1)))
	r2 := b.Load(b.Index(p2, ir.I32c(0)))
	w2 := b.Load(b.Index(p2, ir.I32c(1)))
	ch := b.Alloca(ir.ArrayOf(8, ir.I8), "ch")
	pid := u.Fork()
	isChild := b.ICmp(ir.PredEQ, pid, ir.I64c(0))
	b.If(isChild, func() {
		// Child: echo n bytes from pipe1 to pipe2.
		cbuf := b.Alloca(ir.ArrayOf(8, ir.I8), "cb")
		b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
			u.Read(r1, u.Addr(cbuf), ir.I64c(1))
			u.Write(w2, u.Addr(cbuf), ir.I64c(1))
		})
		u.Exit(ir.I64c(0))
	})
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.Write(w1, u.Addr(ch), ir.I64c(1))
		u.Read(r2, u.Addr(ch), ir.I64c(1))
	})
	u.Waitpid(pid)
	for _, fd := range []ir.Value{r1, w1, r2, w2} {
		u.Close(fd)
	}
	b.Ret(ir.I64c(0))

	// lat_fork: fork + immediate child exit + wait.
	u.Prog("lat_fork")
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		cpid := u.Fork()
		isC := b.ICmp(ir.PredEQ, cpid, ir.I64c(0))
		b.If(isC, func() { u.Exit(ir.I64c(0)) })
		u.Waitpid(cpid)
	})
	b.Ret(ir.I64c(0))

	// nullprog + lat_forkexec: fork + exec of a trivial program + wait.
	u.Prog("nullprog")
	b.Ret(ir.I64c(0))
	nullName := u.StrGlobal("s_nullprog", "nullprog")
	u.Prog("lat_forkexec")
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		cpid := u.Fork()
		isC := b.ICmp(ir.PredEQ, cpid, ir.I64c(0))
		b.If(isC, func() {
			u.Exec(nullName(), ir.I64c(0))
			u.Exit(ir.I64c(-1))
		})
		u.Waitpid(cpid)
	})
	b.Ret(ir.I64c(0))

	// --- bandwidths (Table 8) -----------------------------------------------
	//
	// bw_file_rd(size): create a file of `size` bytes once (stashed fd in a
	// global), then the timed entry re-reads it in 4 KB chunks.  The host
	// passes size via the setup program and iterations via the timed one.

	setupSize := u.M.NewGlobal("bw_size", ir.I64, ir.I64c(0))
	setupFD := u.M.NewGlobal("bw_fd", ir.I64, ir.I64c(-1))
	bwArea := u.M.NewGlobal("bw_area", ir.I64, ir.I64c(0))

	u.Prog("bw_file_setup")
	b.Store(b.Param(0), setupSize)
	area := u.Sbrk(ir.I64c(128*1024 + 4096))
	b.Store(area, bwArea)
	fdw := u.Open(fname(), 64|512)
	written := b.Alloca(ir.I64, "written")
	b.Store(ir.I64c(0), written)
	b.While(func() ir.Value {
		return b.ICmp(ir.PredULT, b.Load(written), b.Param(0))
	}, func() {
		left := b.Sub(b.Param(0), b.Load(written))
		chunk := b.Select(b.ICmp(ir.PredULT, left, ir.I64c(4096)), left, ir.I64c(4096))
		w := u.Write(fdw, b.Load(bwArea), chunk)
		bad := b.ICmp(ir.PredSLE, w, ir.I64c(0))
		b.If(bad, func() { b.Ret(ir.I64c(-1)) })
		b.Store(b.Add(b.Load(written), w), written)
	})
	b.Store(fdw, setupFD)
	b.Ret(ir.I64c(0))

	u.Prog("bw_file_rd")
	fdr := b.Load(setupFD)
	b.For("it", ir.I64c(0), b.Param(0), ir.I64c(1), func(it ir.Value) {
		u.Lseek(fdr, ir.I64c(0), ir.I64c(0))
		got := b.Alloca(ir.I64, "got")
		b.Store(ir.I64c(0), got)
		b.While(func() ir.Value {
			return b.ICmp(ir.PredULT, b.Load(got), b.Load(setupSize))
		}, func() {
			r := u.Read(fdr, b.Load(bwArea), ir.I64c(4096))
			bad := b.ICmp(ir.PredSLE, r, ir.I64c(0))
			b.If(bad, func() { b.Ret(ir.I64c(-2)) })
			b.Store(b.Add(b.Load(got), r), got)
		})
	})
	b.Ret(ir.I64c(0))

	// bw_pipe(iters): transfer bw_size bytes per iteration through a pipe
	// from a forked writer, 4 KB at a time.
	u.Prog("bw_pipe")
	pp := b.Alloca(ir.ArrayOf(2, ir.I64), "pp")
	bwrc := u.Pipe(u.Addr(pp))
	bwbad := b.ICmp(ir.PredNE, bwrc, ir.I64c(0))
	b.If(bwbad, func() { b.Ret(ir.I64c(-11)) })
	prd := b.Load(b.Index(pp, ir.I32c(0)))
	pwr := b.Load(b.Index(pp, ir.I32c(1)))
	area2 := u.Sbrk(ir.I64c(8192))
	cpid := u.Fork()
	isC := b.ICmp(ir.PredEQ, cpid, ir.I64c(0))
	b.If(isC, func() {
		carea := u.Sbrk(ir.I64c(8192))
		b.For("it", ir.I64c(0), b.Param(0), ir.I64c(1), func(it ir.Value) {
			sent := b.Alloca(ir.I64, "sent")
			b.Store(ir.I64c(0), sent)
			b.While(func() ir.Value {
				return b.ICmp(ir.PredULT, b.Load(sent), b.Load(setupSize))
			}, func() {
				left := b.Sub(b.Load(setupSize), b.Load(sent))
				chunk := b.Select(b.ICmp(ir.PredULT, left, ir.I64c(4096)), left, ir.I64c(4096))
				w := u.Write(pwr, carea, chunk)
				bad := b.ICmp(ir.PredSLE, w, ir.I64c(0))
				b.If(bad, func() { u.Exit(ir.I64c(1)) })
				b.Store(b.Add(b.Load(sent), w), sent)
			})
		})
		u.Exit(ir.I64c(0))
	})
	b.For("it", ir.I64c(0), b.Param(0), ir.I64c(1), func(it ir.Value) {
		got2 := b.Alloca(ir.I64, "got")
		b.Store(ir.I64c(0), got2)
		b.While(func() ir.Value {
			return b.ICmp(ir.PredULT, b.Load(got2), b.Load(setupSize))
		}, func() {
			r := u.Read(prd, area2, ir.I64c(4096))
			bad := b.ICmp(ir.PredSLE, r, ir.I64c(0))
			b.If(bad, func() { b.Ret(ir.I64c(-3)) })
			b.Store(b.Add(b.Load(got2), r), got2)
		})
	})
	u.Waitpid(cpid)
	u.Close(prd)
	u.Close(pwr)
	b.Ret(ir.I64c(0))

	// bw_set_size(size): adjust the transfer size without re-creating files.
	u.Prog("bw_set_size")
	b.Store(b.Param(0), setupSize)
	b.Ret(ir.I64c(0))

	// smp_worker(iters): the SMP scaling workload — three per-task syscalls
	// per iteration (getpid, gettimeofday, getrusage), touching only the
	// task's own state, so virtual CPUs never contend inside the guest.
	// Dispatched via kernel.SpawnSMP/RunSMP, which calls the bare function
	// (not the .start wrapper): returning to the host ends the task without
	// an exit syscall, keeping worker CPUs out of the scheduler.
	u.Prog("smp_worker")
	wtv := b.Alloca(ir.ArrayOf(2, ir.I64), "tv")
	wru := b.Alloca(ir.ArrayOf(4, ir.I64), "ru")
	b.For("i", ir.I64c(0), b.Param(0), ir.I64c(1), func(i ir.Value) {
		u.GetPID()
		u.GetTimeofday(u.Addr(wtv))
		u.GetRusage(u.Addr(wru))
	})
	b.Ret(ir.I64c(0))

	u.SealAll()
	return u
}

// Runner holds one booted system per kernel configuration.  Different
// configurations are fully independent machines, so distinct configs may
// be driven from concurrent goroutines; runs within one config must stay
// sequential.
type Runner struct {
	Systems map[vm.Config]*kernel.System
	U       *userland.U
	// prepared is indexed by vm.Config (an array, not a map, so that
	// per-config goroutines never write the same word).
	prepared [4]bool
}

// Configs lists the four kernels in paper order.
var Configs = []vm.Config{vm.ConfigNative, vm.ConfigSVAGCC, vm.ConfigSVALLVM, vm.ConfigSafe}

// NewRunner boots all four configurations with the benchmark module.
func NewRunner() (*Runner, error) {
	r := &Runner{Systems: map[vm.Config]*kernel.System{}}
	for _, cfg := range Configs {
		u := BuildBenchModule()
		sys, err := kernel.NewSystem(cfg, true, u.M)
		if err != nil {
			return nil, fmt.Errorf("hbench: boot %v: %w", cfg, err)
		}
		if err := sys.RegisterProgram("nullprog", u.M.Func("nullprog.start")); err != nil {
			return nil, err
		}
		r.Systems[cfg] = sys
		r.U = u // modules are structurally identical; keep the last
	}
	return r, nil
}

// module returns the user module loaded into cfg's system.
func (r *Runner) module(cfg vm.Config) *ir.Module {
	return r.Systems[cfg].Extra[0]
}

// Measure runs prog(iters) under cfg and returns virtual time per
// iteration (one virtual cycle = 1 ns).  Virtual cycles are deterministic,
// so relative overheads are reproducible run to run — wall-clock noise of
// the host never enters the tables.
func (r *Runner) Measure(cfg vm.Config, prog string, iters uint64) (time.Duration, error) {
	sys := r.Systems[cfg]
	f := r.module(cfg).Func(prog)
	if f == nil {
		return 0, fmt.Errorf("hbench: no program %s", prog)
	}
	c0 := sys.VM.Mach.CPU.Cycles
	got, err := sys.RunUser(f, iters, 4_000_000_000)
	cycles := sys.VM.Mach.CPU.Cycles - c0
	if err != nil {
		return 0, fmt.Errorf("hbench: %s under %v: %w", prog, cfg, err)
	}
	if int64(got) < 0 {
		return 0, fmt.Errorf("hbench: %s under %v returned %d", prog, cfg, int64(got))
	}
	if iters == 0 {
		iters = 1
	}
	return time.Duration(cycles / iters), nil
}

// Setup runs a setup program (untimed).
func (r *Runner) Setup(cfg vm.Config, prog string, arg uint64) error {
	sys := r.Systems[cfg]
	f := r.module(cfg).Func(prog)
	if f == nil {
		return fmt.Errorf("hbench: no program %s", prog)
	}
	got, err := sys.RunUser(f, arg, 4_000_000_000)
	if err != nil {
		return err
	}
	if int64(got) < 0 {
		return fmt.Errorf("hbench: setup %s returned %d", prog, int64(got))
	}
	return nil
}

// LatencyOps lists the Table 7 rows: program name and iteration count.
var LatencyOps = []struct {
	Name  string
	Prog  string
	Iters uint64
}{
	{"getpid", "lat_getpid", 2000},
	{"getrusage", "lat_getrusage", 1000},
	{"gettimeofday", "lat_gettimeofday", 1000},
	{"open/close", "lat_openclose", 400},
	{"sbrk", "lat_sbrk", 2000},
	{"sigaction", "lat_sigaction", 1000},
	{"write", "lat_write", 500},
	{"pipe", "lat_pipe", 200},
	{"fork", "lat_fork", 60},
	{"fork/exec", "lat_forkexec", 60},
}

// BandwidthOps lists the Table 8 rows.
var BandwidthOps = []struct {
	Name  string
	Prog  string
	Size  uint64
	Iters uint64
}{
	{"file read (32k)", "bw_file_rd", 32 * 1024, 8},
	{"file read (64k)", "bw_file_rd", 64 * 1024, 6},
	{"file read (128k)", "bw_file_rd", 128 * 1024, 4},
	{"pipe (32k)", "bw_pipe", 32 * 1024, 6},
	{"pipe (64k)", "bw_pipe", 64 * 1024, 4},
	{"pipe (128k)", "bw_pipe", 128 * 1024, 3},
}

// SMPVCPUs lists the scaling battery's virtual-CPU counts, up to the
// vm.MaxVCPUs ceiling.
var SMPVCPUs = []int{1, 2, 4, 8, 16, 32}

// SMPPoint is one cell of the SMP scaling battery.
type SMPPoint struct {
	VCPUs    int
	Tasks    int
	Syscalls uint64 // syscalls dispatched across all virtual CPUs
	Makespan uint64 // max per-VCPU virtual-cycle delta (parallel wall-clock)
	Busy     uint64 // summed per-VCPU cycle deltas
	// Throughput is syscalls per million virtual cycles of makespan — the
	// aggregate rate.  Time is virtual, so the measurement is exact and
	// deterministic even on a single-core host.
	Throughput float64
}

// MeasureSMP boots a fresh cfg system, parks `tasks` copies of smp_worker
// (iters iterations each) and dispatches them across n virtual CPUs.  A
// fresh system per cell keeps cells independent: no recycled stacks, pids
// or metapool state leak between CPU counts.
func MeasureSMP(cfg vm.Config, n, tasks int, iters uint64) (SMPPoint, error) {
	u := BuildBenchModule()
	sys, err := kernel.NewSystem(cfg, true, u.M)
	if err != nil {
		return SMPPoint{}, fmt.Errorf("hbench: smp boot %v: %w", cfg, err)
	}
	worker := u.M.Func("smp_worker")
	for t := 0; t < tasks; t++ {
		if _, err := sys.SpawnSMP(worker, iters); err != nil {
			return SMPPoint{}, err
		}
	}
	runs, err := sys.RunSMP(n, 0)
	if err != nil {
		return SMPPoint{}, err
	}
	p := SMPPoint{VCPUs: n, Tasks: tasks}
	for _, r := range runs {
		if r.Err != nil {
			return SMPPoint{}, fmt.Errorf("hbench: smp cpu %d: %w", r.CPU, r.Err)
		}
		for _, ret := range r.Rets {
			if int64(ret) != 0 {
				return SMPPoint{}, fmt.Errorf("hbench: smp worker on cpu %d returned %d", r.CPU, int64(ret))
			}
		}
		p.Syscalls += r.Syscalls
		p.Busy += r.Cycles
		if r.Cycles > p.Makespan {
			p.Makespan = r.Cycles
		}
	}
	if p.Makespan > 0 {
		p.Throughput = float64(p.Syscalls) * 1e6 / float64(p.Makespan)
	}
	return p, nil
}

// PrepareBandwidth creates the 128 KB benchmark file once per system and
// sets the per-row transfer size.
func (r *Runner) PrepareBandwidth(cfg vm.Config, size uint64) error {
	if !r.prepared[int(cfg)] {
		if err := r.Setup(cfg, "bw_file_setup", 128*1024); err != nil {
			return err
		}
		r.prepared[int(cfg)] = true
	}
	return r.Setup(cfg, "bw_set_size", size)
}
