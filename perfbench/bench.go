package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"sva/internal/kernel"
	"sva/internal/userland"
	"sva/internal/vm"
)

// setupLoads is how many cold passes of the load path a run times;
// setup_s is their median.
const setupLoads = 21

// rssBatches is how many timed batches peak_rss_mb covers.  The guest
// leaks a little per batch, so a peak over the whole timed phase would
// grow with the number of batches a run fits into its time, which moves
// with host speed.
const rssBatches = 100

// workload is one named benchmark workload.
type workload interface {
	// params returns the workload's parameters; their hash is the
	// workload fingerprint.
	params() any
	// users builds fresh user programs for one pass of the load path.
	users() []*userland.U
	// prepare boots whatever else the workload drives, starting from the
	// image and system the last setup pass produced.
	prepare(e *env) error
	// virtual runs the deterministic virtual-time measurements.  Its
	// sequence of guest work never depends on run length, seed or
	// tracing, so every v* metric repeats exactly.
	virtual(e *env) (map[string]float64, error)
	// batch runs one timed batch and returns the ops it completed and the
	// host time of its timed part.  A non-nil error ends the run.
	batch(e *env) (ops uint64, timed time.Duration, err error)
	// counters sums the program's counters over every system the workload
	// has driven so far (retired systems included).
	counters() counters
	// beginPhase resets per-phase accounting; layer returns the
	// workload's own per-layer metrics for the phase since then.
	beginPhase()
	layer() map[string]float64
}

var workloads = map[string]func(seed uint64) workload{
	"hbench": newHbench,
	"net":    newNet,
	"reboot": newReboot,
}

func workloadNames() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// env is the state a workload shares with the runner.
type env struct {
	opt       options
	tr        *tracer // nil outside the traced phase
	img       *image  // sva-safe image from the load path
	sys       *kernel.System
	served    uint64 // ring requests served so far
	attempted uint64
	failed    uint64
	failures  []string
}

// check counts ops guest operations as attempted and, unless ok, as
// failed, remembering why.
func (e *env) check(ops uint64, ok bool, format string, args ...any) bool {
	if ops == 0 {
		ops = 1
	}
	e.attempted += ops
	if !ok {
		e.failed += ops
		if len(e.failures) < 20 {
			e.failures = append(e.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// phase is one timed stretch of batches.
type phase struct {
	batchMs []float64     // CPU ms per batch, at the reference speed
	rates   []float64     // ops per CPU second at the reference speed, per batch
	rawMs   []float64     // CPU ms per batch, as measured
	speed   speedScale    // calibration samples around the batches
	rssMB   float64       // peak RSS after the first rssBatches batches
	ops     uint64        // workload ops completed
	reqs    uint64        // ring requests served (net, reboot)
	elapsed time.Duration // wall time
	delta   counters
	alloc   uint64 // Go heap bytes allocated
}

// measure runs batches until the given time has passed.
func measure(e *env, w workload, d time.Duration) (*phase, error) {
	w.beginPhase()
	p := &phase{}
	c0 := w.counters()
	r0 := e.served
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var batchOps []uint64
	start := time.Now()
	for b := 0; time.Since(start) < d; b++ {
		p.speed.sample()
		e.tr.setBatch(b)
		ops, timed, err := w.batch(e)
		if err != nil {
			e.check(1, false, "batch %d: %v", b, err)
			e.tr.setBatch(-1)
			return p, err
		}
		p.ops += ops
		batchOps = append(batchOps, ops)
		p.rawMs = append(p.rawMs, ms(timed))
		if len(p.rawMs) == rssBatches {
			p.rssMB = peakRSSMB()
		}
	}
	if p.rssMB == 0 {
		p.rssMB = peakRSSMB()
	}
	p.speed.sample()
	p.elapsed = time.Since(start)
	for b, raw := range p.rawMs {
		x := raw * p.speed.factor(b)
		p.batchMs = append(p.batchMs, x)
		p.rates = append(p.rates, float64(batchOps[b])/(x/1e3))
	}
	e.tr.setBatch(-1)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.delta = combine(w.counters(), c0, -1)
	p.reqs = e.served - r0
	return p, nil
}

func run(o options) (*record, error) {
	// One P: the workload's goroutines (net's two VCPUs, the garbage
	// collector) take turns on one thread.  With two Ps, threads spinning
	// while waiting for work count on the process CPU clock, and that
	// spin time moved net's CPU ms per batch by a third from one run to
	// the next, with a busy or an idle neighbour on the other vCPU.
	runtime.GOMAXPROCS(1)
	w := workloads[o.workload](o.seed)
	rec := &record{
		Workload:    o.workload,
		Trace:       o.trace,
		Provenance:  newProvenance(o),
		Params:      w.params(),
		Fingerprint: fingerprint(w.params()),
	}
	e := &env{opt: o}
	res := result{Metrics: map[string]metric{}}
	finish := func() (*record, error) {
		res.Attempted, res.Failed = e.attempted, e.failed
		if res.Attempted == 0 {
			res.Attempted = 1
		}
		res.Correct = e.failed == 0
		rec.Failures = e.failures
		rec.Result = res
		return rec, nil
	}

	// Set-up: cold passes of the load path.  The last pass's image and
	// system are the ones the workload drives.  Each pass's stage times
	// are scaled to the reference speed.
	var loads []loadTimes
	var speed speedScale
	for i := 0; i < setupLoads; i++ {
		runtime.GC()
		speed.sample()
		im, sys, t, err := load(vm.ConfigSafe, w.users, nil)
		if !e.check(1, err == nil, "load path: %v", err) {
			return finish()
		}
		loads = append(loads, t)
		e.img, e.sys = im, sys
	}
	speed.sample()
	for i := range loads {
		loads[i] = loads[i].scaled(speed.factor(i))
	}
	if err := w.prepare(e); err != nil {
		e.check(1, false, "prepare: %v", err)
		return finish()
	}
	v, err := w.virtual(e)
	if err != nil {
		e.check(1, false, "virtual phase: %v", err)
		return finish()
	}
	rec.Virtual = v

	if !o.trace {
		p, err := measure(e, w, seconds(o.seconds))
		if err != nil {
			return finish()
		}
		rec.Batches = len(p.batchMs)
		rec.WallSeconds = p.elapsed.Seconds()
		rec.Speed = speedRecord(p)
		setup := make([]float64, len(loads))
		for i, t := range loads {
			setup[i] = t.total().Seconds()
		}
		m := map[string]float64{
			"setup_s":         median(setup),
			"ops_per_s":       median(p.rates),
			"host_ms_p50":     quantile(p.batchMs, 0.5),
			"host_ms_p90":     quantile(p.batchMs, 0.9),
			"sim_steps_per_s": median(p.rates) * ratio(p.delta.VM.Steps, p.ops),
			"peak_rss_mb":     p.rssMB,
		}
		for _, s := range endToEndSpec {
			if x, ok := v[s.name]; ok {
				m[s.name] = x
			}
		}
		if res.Metrics, err = withUnits(endToEndSpec, m); err != nil {
			return nil, err
		}
		return finish()
	}

	// Traced run: an untraced half for the reference throughput, then a
	// traced half with spans and a CPU profile.
	half := seconds(o.seconds / 2)
	ref, err := measure(e, w, half)
	if err != nil {
		return finish()
	}
	e.tr = newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	p, err := measure(e, w, half)
	pprof.StopCPUProfile()
	if err != nil {
		return finish()
	}
	rec.Batches = len(p.batchMs)
	rec.WallSeconds = p.elapsed.Seconds()
	samples, perr := parseProfile(prof.Bytes())
	if perr != nil {
		return nil, fmt.Errorf("cpu profile: %w", perr)
	}
	fold := foldProfile(samples)
	if res.Metrics, err = layerMetrics(e, w, p, ref, loads, v, fold); err != nil {
		return nil, err
	}
	rec.SelfTimeMs = e.tr.selfTimes()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := e.tr.write(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	return finish()
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// cpuNow reads the process CPU clock: CPU time of every thread, user and
// system.  All host times the benchmark reports are on this clock.  The
// guest CPUs of a shared host lose a varying share of wall time to other
// tenants (steal time); a run that lost a sixth of its wall time to steal
// took within a few percent of the CPU time of the runs that lost none.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno)) // the clock exists on every Linux
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerMetrics computes every per-layer metric from the traced phase p,
// the untraced reference phase ref, the set-up passes and the profile.
// Metrics a workload does not exercise read 0.
func layerMetrics(e *env, w workload, p, ref *phase, loads []loadTimes, v map[string]float64, fold hostFolding) (map[string]metric, error) {
	m := map[string]float64{}
	perOp := func(x uint64) float64 { return ratio(x, p.ops) }
	perReq := func(x uint64) float64 { return ratio(x, p.reqs) }
	medLoad := func(f func(loadTimes) time.Duration) float64 {
		xs := make([]float64, len(loads))
		for i, t := range loads {
			xs[i] = ms(f(t))
		}
		return median(xs)
	}
	// Load path.
	m["kernel.build_ms"] = medLoad(func(t loadTimes) time.Duration { return t.build })
	m["safety.compile_ms"] = medLoad(func(t loadTimes) time.Duration { return t.compile })
	m["bytecode.encode_ms"] = medLoad(func(t loadTimes) time.Duration { return t.encode })
	m["bytecode.decode_ms"] = medLoad(func(t loadTimes) time.Duration { return t.decode })
	m["bytecode.bytes"] = float64(loads[len(loads)-1].bytes)
	m["ir.verify_ms"] = medLoad(func(t loadTimes) time.Duration { return t.verify })
	m["typecheck.check_ms"] = medLoad(func(t loadTimes) time.Duration { return t.check })
	m["kernel.boot_ms"] = medLoad(func(t loadTimes) time.Duration { return t.boot })

	// vm and trap path.
	d := p.delta
	m["vm.steps_per_op"] = perOp(d.VM.Steps)
	m["vm.engine_step_frac"] = ratio(d.VM.EngineSteps, d.VM.Steps)
	m["vm.intrinsics_per_op"] = perOp(d.VM.Intrinsics)
	m["vm.memops_per_op"] = perOp(d.VM.MemOps)
	m["vm.translations"] = perOp(d.VM.Translations)
	m["vm.traps_per_op"] = perOp(d.VM.Traps)

	// metapool: disjoint lookup tiers, write path, checks, leak gauges.
	c := d.Checks
	m["metapool.page_hits"] = perOp(c.PageHits)
	m["metapool.cache_hits"] = perOp(c.CacheHits)
	m["metapool.pend_hits"] = perOp(c.PendHits)
	m["metapool.tree_descents"] = perOp(c.CacheMisses)
	m["metapool.registered"] = perOp(c.Registered)
	m["metapool.absorbed"] = perOp(c.Absorbed)
	m["metapool.spilled"] = perOp(c.Spilled)
	m["metapool.epoch_reclaims"] = perOp(c.EpochReclaims)
	m["metapool.checks_bounds"] = perOp(c.BoundsChecks)
	m["metapool.checks_ls"] = perOp(c.LSChecks)
	m["metapool.elided"] = perOp(c.ElidedBounds + c.ElidedLS)
	nb := float64(len(p.batchMs))
	// The live-object delta can be negative; the modular difference read
	// as int64 is its exact value.
	m["metapool.live_objects_delta"] = float64(int64(d.Objects)) / nb
	m["metapool.reg_minus_drop_delta"] = (float64(c.Registered) - float64(c.Dropped)) / nb

	// Ring NIC.
	m["hw.ring.doorbells_per_req"] = perReq(d.Bells)
	m["hw.ring.frames_per_doorbell"] = ratio(d.Frames, d.Bells)
	m["hw.ring.intr_per_req"] = perReq(d.Intr)
	m["hw.ring.bad_descs"] = float64(d.BadDesc)

	// Host CPU profile folded by layer.
	for _, l := range hostLayers {
		m[l+".host_frac"] = fold.frac[l]
	}
	m["hw.physmem.lock_frac"] = fold.lockFrac
	m["go.gc_frac"] = fold.gcFrac
	m["go.alloc_bytes_per_op"] = perOp(p.alloc)

	// Spans and the workload's own host times, at the reference speed.
	f := p.speed.overall()
	m["kernel.run_smp_ms"] = f * median(e.tr.durationsMs("netload.MeasureOn"))
	m["domain.supervisor_boot_ms"] = f * median(e.tr.durationsMs("domain.NewSupervisor"))
	m["domain.reboot_ms"] = f * median(e.tr.durationsMs("domain.Supervisor.Reboot"))

	for k, x := range w.layer() {
		if strings.HasSuffix(k, "_ms") || strings.HasSuffix(k, ".host_ns_per_iter") {
			x *= f
		}
		m[k] = x
	}
	for k, x := range v {
		if strings.HasPrefix(k, "hbench.") {
			m[k] = x
		}
	}
	m["fail_frac"] = ratio(e.failed, e.attempted)
	refRate, tracedRate := median(ref.rates), median(p.rates)
	m["trace.overhead_pct"] = 100 * (refRate - tracedRate) / refRate
	return withUnits(perLayerSpec(), m)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// withUnits attaches each spec'd metric's unit, reading 0 for metrics the
// workload does not exercise, and refuses values the spec does not name.
func withUnits(spec []metricSpec, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(spec))
	for _, s := range spec {
		out[s.name] = metric{vals[s.name], s.unit}
	}
	for k := range vals {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %s is not in the spec", k)
		}
	}
	return out, nil
}
