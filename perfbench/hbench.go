package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sva/internal/hbench"
	"sva/internal/kernel"
	"sva/internal/userland"
	"sva/internal/vm"
)

// hbenchParams fixes the hbench workload.  Latency programs run with the
// hbench.LatencyOps iteration counts divided by LatDiv in each timed
// round; bandwidth rows run at their hbench.BandwidthOps counts.
type hbenchParams struct {
	Configs   []string
	Latency   []progParams
	Bandwidth []progParams
	LatDiv    uint64
	TwoPoint  string // virtual per-iteration cost: (C(2N) - C(N)) / N
	VCPUs     int
	SeedUse   string
}

type progParams struct {
	Prog  string
	Size  uint64 `json:",omitempty"`
	Iters uint64
}

// hbenchLatDiv shrinks the timed rounds so a run yields well over 100 of
// them; the virtual two-point measurement uses the full counts.
const hbenchLatDiv = 4

// hbenchSys is one configuration's pair of machines: latency programs on
// one, bandwidth programs on the other.  Table 7's lat_write truncates the
// file Table 8's bw_file_rd re-reads, so they must not share a machine.
type hbenchSys struct {
	name    string
	u       *userland.U
	lat, bw *kernel.System
}

type hbenchWL struct {
	rng   *rand.Rand
	sys   []*hbenchSys             // native, sva-safe
	hostN map[string]time.Duration // per program.config: host time this phase
	iters map[string]uint64
}

func newHbench(seed uint64) workload {
	return &hbenchWL{rng: rand.New(rand.NewSource(int64(seed)))}
}

func (w *hbenchWL) params() any {
	p := hbenchParams{Configs: hbenchConfigNames, LatDiv: hbenchLatDiv, VCPUs: 1,
		TwoPoint: "N,2N", SeedUse: "order of latency programs in each timed round"}
	for _, op := range hbench.LatencyOps {
		p.Latency = append(p.Latency, progParams{Prog: op.Prog, Iters: op.Iters})
	}
	for _, op := range hbench.BandwidthOps {
		p.Bandwidth = append(p.Bandwidth, progParams{Prog: op.Prog, Size: op.Size, Iters: op.Iters})
	}
	return p
}

func (w *hbenchWL) users() []*userland.U { return []*userland.U{hbench.BuildBenchModule()} }

func (w *hbenchWL) prepare(e *env) error {
	native, nsys, _, err := load(vm.ConfigNative, w.users, nil)
	if err != nil {
		return fmt.Errorf("native load: %w", err)
	}
	for _, c := range []struct {
		cfg vm.Config
		im  *image
		lat *kernel.System
	}{{vm.ConfigNative, native, nsys}, {vm.ConfigSafe, e.img, e.sys}} {
		bw, err := c.im.boot(nil)
		if err != nil {
			return err
		}
		s := &hbenchSys{name: c.cfg.String(), u: c.im.users[0], lat: c.lat, bw: bw}
		if err := s.lat.RegisterProgram("nullprog", s.u.M.Func("nullprog.start")); err != nil {
			return err
		}
		// The bandwidth file is created once per machine.
		if _, err := w.runProg(e, s.bw, s.u, "bw_file_setup", 128*1024, "bw_file_setup."+s.name); err != nil {
			return err
		}
		w.sys = append(w.sys, s)
	}
	return nil
}

// runProg runs one guest program to completion and checks its return code:
// every HBench-OS program returns a negative code when one of its
// system calls failed.  It returns the virtual cycles the program took.
func (w *hbenchWL) runProg(e *env, sys *kernel.System, u *userland.U, prog string, arg uint64, label string) (uint64, error) {
	f := u.M.Func(prog)
	if f == nil {
		return 0, fmt.Errorf("no program %s", prog)
	}
	c0, t0 := sys.VM.Mach.CPU.Cycles, sys.VM.Counters.Traps
	sp := e.tr.begin("kernel.RunUser")
	got, err := sys.RunUser(f, arg, 4_000_000_000)
	e.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", label, err)
	}
	e.check(sys.VM.Counters.Traps-t0, int64(got) >= 0, "%s(%d) returned %d", label, arg, int64(got))
	return sys.VM.Mach.CPU.Cycles - c0, nil
}

// virtual measures every program's per-iteration virtual cost by the
// two-point method: run N and 2N iterations and divide the difference by
// N, so program start-up and teardown cancel.
func (w *hbenchWL) virtual(e *env) (map[string]float64, error) {
	vcyc := map[string]float64{}
	twoPoint := func(sys *kernel.System, u *userland.U, prog string, n uint64, label string) (float64, error) {
		c1, err := w.runProg(e, sys, u, prog, n, label)
		if err != nil {
			return 0, err
		}
		c2, err := w.runProg(e, sys, u, prog, 2*n, label)
		if err != nil {
			return 0, err
		}
		return (float64(c2) - float64(c1)) / float64(n), nil
	}
	for _, s := range w.sys {
		for _, op := range hbench.LatencyOps {
			key := "hbench." + op.Prog + "." + s.name + ".vcycles_per_iter"
			c, err := twoPoint(s.lat, s.u, op.Prog, op.Iters, op.Prog+"."+s.name)
			if err != nil {
				return nil, err
			}
			vcyc[key] = c
		}
		for _, op := range hbench.BandwidthOps {
			name := bwName(op.Prog, op.Size)
			if _, err := w.runProg(e, s.bw, s.u, "bw_set_size", op.Size, "bw_set_size."+s.name); err != nil {
				return nil, err
			}
			c, err := twoPoint(s.bw, s.u, op.Prog, op.Iters, name+"."+s.name)
			if err != nil {
				return nil, err
			}
			vcyc["hbench."+name+"."+s.name+".vcycles_per_iter"] = c
		}
	}
	// End-to-end virtual metrics: sva-safe cost per latency iteration,
	// its spread over the Table 7 programs, and the safe-vs-native
	// overhead as a geometric mean over all 16 rows.
	var sum, iters float64
	var lats []float64
	for _, op := range hbench.LatencyOps {
		c := vcyc["hbench."+op.Prog+".sva-safe.vcycles_per_iter"]
		sum += c * float64(op.Iters)
		iters += float64(op.Iters)
		lats = append(lats, c)
	}
	logSum := 0.0
	progs := hbenchPrograms()
	for _, p := range progs {
		logSum += math.Log(vcyc["hbench."+p+".sva-safe.vcycles_per_iter"] / vcyc["hbench."+p+".native.vcycles_per_iter"])
	}
	perOp := sum / iters
	v := map[string]float64{
		"vcycles_per_op":     perOp,
		"vsafe_overhead_pct": 100 * (math.Exp(logSum/float64(len(progs))) - 1),
		"vlat_p50_cycles":    rankPercentile(lats, 50),
		"vlat_p99_cycles":    rankPercentile(lats, 99),
		"vcapacity_rps":      1e9 / perOp, // 1 cycle = 1 ns
	}
	for k, c := range vcyc {
		v[k] = c
	}
	return v, nil
}

// batch is one round of the battery: every latency program (in a seeded
// order) and every bandwidth row, under both configurations.
func (w *hbenchWL) batch(e *env) (uint64, time.Duration, error) {
	t0 := cpuNow()
	var ops uint64
	order := w.rng.Perm(len(hbench.LatencyOps))
	timed := func(s *hbenchSys, sys *kernel.System, prog string, arg uint64, key string) error {
		tr0 := sys.VM.Counters.Traps
		h0 := cpuNow()
		_, err := w.runProg(e, sys, s.u, prog, arg, key)
		w.hostN[key] += cpuNow() - h0
		w.iters[key] += arg
		ops += sys.VM.Counters.Traps - tr0
		return err
	}
	for _, s := range w.sys {
		for _, i := range order {
			op := hbench.LatencyOps[i]
			if err := timed(s, s.lat, op.Prog, op.Iters/hbenchLatDiv, op.Prog+"."+s.name); err != nil {
				return ops, 0, err
			}
		}
		if e.opt.injectFail {
			// Self-test of the failure path: bw_file_rd on the latency
			// machine, whose bandwidth file was never created, fails its
			// reads and returns -2.
			if _, err := w.runProg(e, s.lat, s.u, "bw_set_size", 4096, "bw_set_size.lat"); err != nil {
				return ops, 0, err
			}
			if _, err := w.runProg(e, s.lat, s.u, "bw_file_rd", 1, "bw_file_rd.lat."+s.name); err != nil {
				return ops, 0, err
			}
		}
		for _, op := range hbench.BandwidthOps {
			if _, err := w.runProg(e, s.bw, s.u, "bw_set_size", op.Size, "bw_set_size."+s.name); err != nil {
				return ops, 0, err
			}
			if err := timed(s, s.bw, op.Prog, op.Iters, bwName(op.Prog, op.Size)+"."+s.name); err != nil {
				return ops, 0, err
			}
		}
	}
	return ops, cpuNow() - t0, nil
}

func (w *hbenchWL) counters() counters {
	var c counters
	for _, s := range w.sys {
		c = combine(c, snapshot(s.lat, s.bw), 1)
	}
	return c
}

func (w *hbenchWL) beginPhase() {
	w.hostN = map[string]time.Duration{}
	w.iters = map[string]uint64{}
}

func (w *hbenchWL) layer() map[string]float64 {
	m := map[string]float64{}
	for k, d := range w.hostN {
		m["hbench."+k+".host_ns_per_iter"] = float64(d.Nanoseconds()) / float64(w.iters[k])
	}
	return m
}

// rankPercentile is netload's nearest-rank percentile: the value at index
// (n-1)*p/100 of the sorted sample.
func rankPercentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)*p/100]
}
