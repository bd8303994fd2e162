package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// The CPU time a batch takes depends on the program and on how fast the
// host runs this process at that moment.  On a shared host the second
// factor is not steady: other tenants on the same cores and caches moved
// the CPU time of identical batches by up to 2x between runs minutes
// apart.  Every host time the benchmark reports is therefore scaled to a
// reference speed.  A fixed calibration kernel, written here and sharing
// no code with the program under test, is timed next to every batch; a
// batch's time is multiplied by calRefMs ÷ (the calibration kernel's time
// around that batch).  A change to the program moves the batch times and
// not the calibration, so it shows in full; a change in host speed moves
// both, and cancels.

// calRefMs is the reference speed: host times are reported as if the
// calibration kernel took this many CPU ms per sample.  calSteps is set so
// that a sample takes about that long on the host the bounds were set on.
const calRefMs = 1.0

// calWindow is how many calibration samples, nearest in time, give the
// speed for one batch (their mean).  The host's speed flips between a fast
// and a slow state within milliseconds, so one sample may catch either;
// the mean over a window spanning many batches tracks the share of time
// the host spent slow, which is what stretches a batch.
const calWindow = 15

const (
	calChaseWords = 1 << 12 // 16 KiB pointer-chase ring
	calTableSlots = 1 << 11 // open-addressed hash table, half full
	calCodeLen    = 64
	calSteps      = 280000 // interpreted steps per sample
)

// calData is the calibration kernel's read-only input, built once from a
// fixed seed so every run times the same work.  The kernel is core-bound:
// its data stays in the near caches, and it uses no Go map (whose per-map
// random hash seed would change the work from process to process) and
// allocates nothing (so it does no garbage-collector assists).
type calData struct {
	chase []uint32
	keys  []uint32
	vals  []uint32
	code  [calCodeLen]byte
}

var (
	calOnce sync.Once
	cal     *calData
	calSink uint64 // the kernel's result, kept so the work is not elided
)

func calHash(k uint32) uint32 { return k * 2654435761 >> (32 - 11) }

func calInit() {
	d := &calData{chase: make([]uint32, calChaseWords), keys: make([]uint32, calTableSlots), vals: make([]uint32, calTableSlots)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// One random cycle through the whole ring (Sattolo's shuffle).
	for i := range d.chase {
		d.chase[i] = uint32(i)
	}
	for i := len(d.chase) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		d.chase[i], d.chase[j] = d.chase[j], d.chase[i]
	}
	// Keys are 1..calTableSlots/2 (0 marks an empty slot).
	for k := uint32(1); k <= calTableSlots/2; k++ {
		h := calHash(k)
		for d.keys[h] != 0 {
			h = (h + 1) & (calTableSlots - 1)
		}
		d.keys[h], d.vals[h] = k, uint32(next())
	}
	// The op mix of a bytecode interpreter: mostly ALU, then dependent
	// loads, hash-table probes and data-dependent branches.
	for i := range d.code {
		switch r := next() % 100; {
		case r < 45:
			d.code[i] = byte(next() % 4) // ALU
		case r < 65:
			d.code[i] = 4 // chase
		case r < 85:
			d.code[i] = 5 // table probe
		default:
			d.code[i] = 6 // branch
		}
	}
	cal = d
}

// calRun interprets the calibration program for n steps.
func calRun(seed uint64, n int) uint64 {
	d := cal
	r0, r1, p := seed|1, seed*31+7, uint32(seed)
	for i := 0; i < n; i++ {
		switch d.code[i%calCodeLen] {
		case 0:
			r0 += r1
		case 1:
			r1 ^= r0 >> 3
		case 2:
			r0 *= 0x5851f42d4c957f2d
		case 3:
			r1 = r1<<5 | r1>>59
		case 4:
			p = d.chase[p&(calChaseWords-1)]
			r0 += uint64(p)
		case 5:
			k := uint32(r0)&(calTableSlots-1) + 1 // present about half the time
			for h := calHash(k); d.keys[h] != 0; h = (h + 1) & (calTableSlots - 1) {
				if d.keys[h] == k {
					r1 += uint64(d.vals[h])
					break
				}
			}
		case 6:
			if r0&1 == 0 {
				r0 >>= 1
			} else {
				r0 = 3*r0 + 1
			}
		}
	}
	return r0 ^ r1 ^ uint64(p)
}

// threadCPU reads the calling thread's CPU clock.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// calSample runs the calibration kernel once, locked to its thread and
// timed on that thread's CPU clock (so garbage-collector work elsewhere in
// the process does not count), and returns its CPU ms.
func calSample() float64 {
	calOnce.Do(calInit)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	calSink += calRun(calSink, calSteps/4) // warm the caches
	t0 := threadCPU()
	calSink += calRun(calSink, calSteps)
	return ms(threadCPU() - t0)
}

// speedScale is a phase's calibration record: samples[i] was taken just
// before batch (or set-up pass) i, and one more after the last.
type speedScale struct{ samples []float64 }

func (s *speedScale) sample() { s.samples = append(s.samples, calSample()) }

// factor returns calRefMs ÷ (the mean of the calWindow samples nearest
// to batch b), the multiplier that takes batch b's host time to the
// reference speed.
func (s *speedScale) factor(b int) float64 {
	lo := max(0, b+1-calWindow/2)
	hi := min(len(s.samples), lo+calWindow)
	lo = max(0, hi-calWindow)
	return calRefMs / mean(s.samples[lo:hi])
}

// overall is calRefMs ÷ the mean of every sample of the phase.
func (s *speedScale) overall() float64 { return calRefMs / mean(s.samples) }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// speedStats is a phase's calibration, kept in the run record: every
// calibration sample and every batch's measured CPU ms, in order, with
// the samples' mean and the median batch time before and after scaling.
type speedStats struct {
	CalMeanMs     float64   `json:"cal_mean_ms"`
	RawBatchMs    float64   `json:"raw_batch_ms_p50"`
	ScaledBatchMs float64   `json:"scaled_batch_ms_p50"`
	CalMs         []float64 `json:"cal_ms"`
	RawMs         []float64 `json:"raw_ms"`
}

func speedRecord(p *phase) *speedStats {
	return &speedStats{
		CalMeanMs:     mean(p.speed.samples),
		RawBatchMs:    median(p.rawMs),
		ScaledBatchMs: median(p.batchMs),
		CalMs:         p.speed.samples,
		RawMs:         p.rawMs,
	}
}
