package report

// The -table=engine report measures what the threaded-code execution
// engine (DESIGN.md §14) buys on the host: the Table 7 latency battery
// runs on engine-on and interpreter-only twins of two kernels — sva-safe
// (translated) and native (direct) — and the table reports host
// wall-clock per row plus the speedup ratio.  Every config runs on the
// engine; the direct configs differ only in the modeled gcc-vs-llvm
// penalty, which both twins charge identically.  Virtual time is
// required to be bit-identical between the twins (the engine is a
// host-side optimization, never a semantic change), so the ratio is the
// only number that moves: it is a property of the host, unlike every
// other sva-bench table, which is why `engine` is not part of -table=all.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"sva/internal/hbench"
	"sva/internal/vm"
)

// enginePasses is how many times each row is timed on each twin.  The
// reported wall-clock is the per-twin minimum across passes: a GC pause
// or scheduler hiccup inflates one pass, never the minimum.  Both twins
// always run the same pass count so their virtual streams stay in
// lockstep.
const enginePasses = 3

// engineConfigs are the kernels the engine report measures, translated
// first.
var engineConfigs = []vm.Config{vm.ConfigSafe, vm.ConfigNative}

// EngineRow is one Table 7 workload measured on both execution engines.
type EngineRow struct {
	Config  vm.Config
	Name    string
	Virtual time.Duration // per-op virtual latency (identical on both twins)
	WallOn  time.Duration // host wall-clock, threaded engine
	WallOff time.Duration // host wall-clock, interpreter only
	Speedup float64       // WallOff / WallOn
}

// RunEngine measures the Table 7 battery under each engineConfigs kernel
// on engine-on and interpreter-only twins and returns per-row wall-clock
// speedups.  The twins execute the same virtual instruction stream; any
// divergence in virtual time is reported as an error rather than
// averaged away.
func RunEngine(scale Scale) ([]EngineRow, error) {
	on, err := hbench.NewRunner()
	if err != nil {
		return nil, err
	}
	off, err := hbench.NewRunner()
	if err != nil {
		return nil, err
	}
	for _, sys := range off.Systems {
		sys.VM.SetEngine(false)
	}
	rows := make([]EngineRow, 0, len(engineConfigs)*len(hbench.LatencyOps))
	for _, cfg := range engineConfigs {
		for _, op := range hbench.LatencyOps {
			iters := scale.apply(op.Iters)
			var dOn time.Duration
			var wallOn, wallOff time.Duration
			for pass := 0; pass < enginePasses; pass++ {
				runtime.GC()
				t0 := time.Now()
				don, err := on.Measure(cfg, op.Prog, iters)
				wOn := time.Since(t0)
				if err != nil {
					return nil, err
				}
				runtime.GC()
				t1 := time.Now()
				doff, err := off.Measure(cfg, op.Prog, iters)
				wOff := time.Since(t1)
				if err != nil {
					return nil, err
				}
				if don != doff {
					return nil, fmt.Errorf("report: engine changed virtual time of %s under %v: %v vs %v",
						op.Name, cfg, don, doff)
				}
				dOn = don
				if pass == 0 || wOn < wallOn {
					wallOn = wOn
				}
				if pass == 0 || wOff < wallOff {
					wallOff = wOff
				}
			}
			sp := 0.0
			if wallOn > 0 {
				sp = float64(wallOff) / float64(wallOn)
			}
			rows = append(rows, EngineRow{
				Config: cfg, Name: op.Name, Virtual: dOn, WallOn: wallOn, WallOff: wallOff, Speedup: sp,
			})
		}
	}
	return rows, nil
}

// engineGeomean is the geometric-mean speedup of cfg's rows.
func engineGeomean(rows []EngineRow, cfg vm.Config) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		if r.Config == cfg {
			logSum += math.Log(r.Speedup)
			n++
		}
	}
	return math.Exp(logSum / float64(n))
}

// EngineTable renders the engine speedup report.
func EngineTable(rows []EngineRow) string {
	var sb strings.Builder
	sb.WriteString("Threaded-code engine: host wall-clock on the Table 7 battery\n")
	fmt.Fprintf(&sb, "%-9s %-14s %12s %12s %12s %9s\n",
		"Config", "Test", "Virtual/op", "Engine", "Interp", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-9s %-14s %12s %12s %12s %8.2fx\n",
			r.Config, r.Name, r.Virtual, r.WallOn.Round(time.Microsecond),
			r.WallOff.Round(time.Microsecond), r.Speedup)
	}
	for _, cfg := range engineConfigs {
		fmt.Fprintf(&sb, "geometric-mean speedup (%v): %.2fx\n", cfg, engineGeomean(rows, cfg))
	}
	return sb.String()
}

// RecordEngineRows feeds engine rows into a metric set, keyed by config.
// Virtual latencies are deterministic; the speedups are host wall-clock
// ratios, so baseline deltas on them carry host noise by design.
func RecordEngineRows(s *MetricSet, rows []EngineRow) {
	for _, r := range rows {
		key := r.Config.String() + "/" + r.Name
		s.Add("engine", key+"/virtual_ns", "ns", float64(r.Virtual/time.Nanosecond))
		s.Add("engine", key+"/speedup", "x", r.Speedup)
	}
	for _, cfg := range engineConfigs {
		s.Add("engine", cfg.String()+"/geomean/speedup", "x", engineGeomean(rows, cfg))
	}
}
