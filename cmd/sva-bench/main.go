// Command sva-bench regenerates the paper's evaluation tables from the
// reproduction.
//
// Usage:
//
//	sva-bench -table=4          porting effort
//	sva-bench -table=5          application latency overheads
//	sva-bench -table=6          thttpd bandwidth reduction
//	sva-bench -table=7          kernel operation latency overheads
//	sva-bench -table=8          kernel bandwidth reduction
//	sva-bench -table=9          static safety metrics
//	sva-bench -table=checks     run-time check / last-hit cache statistics
//	sva-bench -table=profile    virtual-cycle profile of the Table 7 battery
//	sva-bench -table=exploits   §7.2 exploit detection matrix
//	sva-bench -table=tcb        §5 verifier bug-injection experiment
//	sva-bench -table=ablation   §4.8 cloning/devirtualization ablation
//	sva-bench -table=faults     fault-injection campaign outcome matrix
//	sva-bench -table=all        everything
//	sva-bench -table=smp        SMP syscall-throughput scaling at 1/2/4/8/16/32 VCPUs
//	sva-bench -table=net        descriptor-ring socket serving at 1/2/4 VCPUs
//	sva-bench -table=domains    multi-domain serving at 1/2/4 domains + supervised microreboot recovery
//	sva-bench -table=engine     threaded-code engine wall-clock speedup (not in "all": host-dependent)
//	sva-bench -seeds=25         seeds per fault class for -table=faults
//	sva-bench -scale=4          divide iteration counts by 4 (quick run)
//	sva-bench -workers=1        serial generation (default: one worker per CPU)
//	sva-bench -benchjson=out.json      dump numeric rows as machine-readable JSON
//	sva-bench -baseline=BENCH_seed.json  print per-row deltas vs a saved dump
//	sva-bench -cpuprofile=cpu.pprof    host-level CPU profile of the bench run
//	sva-bench -memprofile=mem.pprof    host heap profile at exit
//
// Every table is generated on its own deterministic virtual machines, so
// table sections are independent jobs: with -workers > 1 they run
// concurrently on a bounded worker pool, and the config×workload runs
// inside Tables 5-8 fan out one goroutine per kernel configuration.  The
// printed tables are bit-identical to a serial run (-workers=1).
//
// -table takes a comma-separated list of the names above ("-table=5,7,8");
// an unknown name is a usage error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"sva/internal/hbench"
	"sva/internal/report"
)

// tableNames are the names -table accepts.  "all" selects every table
// except "engine", which measures host wall-clock and must be named.
var tableNames = []string{"api", "fig2", "4", "5", "6", "7", "8", "9", "checks", "profile",
	"exploits", "tcb", "ablation", "faults", "smp", "net", "domains", "engine", "all"}

// parseTables splits a comma-separated -table value into the set of names
// it selects, rejecting every entry that names no table.
func parseTables(spec string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, n := range tableNames {
		known[n] = true
	}
	wanted := map[string]bool{}
	var bad []string
	for _, t := range strings.Split(spec, ",") {
		t = strings.TrimSpace(t)
		if !known[t] {
			bad = append(bad, fmt.Sprintf("%q", t))
			continue
		}
		wanted[t] = true
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("unknown -table name %s (want a comma-separated list of: %s)",
			strings.Join(bad, ", "), strings.Join(tableNames, ", "))
	}
	return wanted, nil
}

func main() {
	table := flag.String("table", "all", "comma-separated tables to regenerate ("+strings.Join(tableNames, ", ")+")")
	scale := flag.Uint64("scale", 1, "divide iteration counts (1 = full run)")
	seeds := flag.Int("seeds", 25, "seeds per fault class for -table=faults")
	workers := flag.Int("workers", report.DefaultWorkers(), "max concurrent table jobs and per-table configurations (1 = serial)")
	benchjson := flag.String("benchjson", "", "write numeric table rows as JSON to this file")
	baseline := flag.String("baseline", "", "print per-row deltas against a saved -benchjson dump")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile (pprof) to this file")
	memprofile := flag.String("memprofile", "", "write a host heap profile (pprof) to this file at exit")
	flag.Parse()
	wanted, err := parseTables(*table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sva-bench:", err)
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sva-bench:", err)
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	s := report.Scale(*scale)
	w := *workers
	metrics := &report.MetricSet{}
	want := func(name string) bool { return wanted["all"] || wanted[name] }

	// Each job renders one or more related sections; related tables that
	// share booted systems stay inside a single job so their relative
	// execution order (and thus every cycle count) matches a serial run.
	var jobs []report.TableJob
	add := func(name string, gen func() (string, error)) {
		jobs = append(jobs, report.TableJob{Name: name, Gen: gen})
	}
	if want("api") {
		add("api", func() (string, error) { return report.APITable(), nil })
	}
	if want("fig2") {
		add("fig2", report.Figure2)
	}
	if want("4") {
		add("table4", func() (string, error) { return report.Table4(), nil })
	}
	if want("5") || want("6") {
		add("tables5-6", func() (string, error) {
			rows, err := report.RunAppsN(s, w)
			if err != nil {
				return "", err
			}
			report.RecordAppRows(metrics, rows)
			var parts []string
			if want("5") {
				parts = append(parts, report.Table5(rows))
			}
			if want("6") {
				parts = append(parts, report.Table6(rows))
			}
			return strings.Join(parts, "\n"), nil
		})
	}
	if want("7") || want("8") || want("checks") || want("profile") {
		add("tables7-8", func() (string, error) {
			r, err := hbench.NewRunner()
			if err != nil {
				return "", err
			}
			var parts []string
			if want("7") {
				rows, err := report.RunLatenciesN(r, s, w)
				if err != nil {
					return "", err
				}
				report.RecordBenchRows(metrics, "table7", rows)
				parts = append(parts, report.Table7(rows))
			}
			if want("8") {
				rows, err := report.RunBandwidthsN(r, s, w)
				if err != nil {
					return "", err
				}
				report.RecordBenchRows(metrics, "table8", rows)
				parts = append(parts, report.Table8(rows))
			}
			if want("checks") {
				t, err := report.ChecksTable(r, s)
				if err != nil {
					return "", err
				}
				parts = append(parts, t)
			}
			if want("profile") {
				t, err := report.ProfileTable(r, s)
				if err != nil {
					return "", err
				}
				parts = append(parts, t)
			}
			return strings.Join(parts, "\n"), nil
		})
	}
	if want("9") {
		add("table9", report.Table9)
	}
	if want("smp") {
		add("smp", func() (string, error) {
			rows, err := report.RunSMPN(s, w)
			if err != nil {
				return "", err
			}
			report.RecordSMPRows(metrics, rows)
			return report.SMPTable(rows), nil
		})
	}
	if want("net") {
		add("net", func() (string, error) {
			rows, err := report.RunNetN(s, w)
			if err != nil {
				return "", err
			}
			report.RecordNetRows(metrics, rows)
			return report.NetTable(rows), nil
		})
	}
	if want("domains") {
		add("domains", func() (string, error) {
			rows, recs, err := report.RunDomainsN(s, w)
			if err != nil {
				return "", err
			}
			report.RecordDomainRows(metrics, rows, recs)
			return report.DomainsTable(rows, recs), nil
		})
	}
	// The engine table measures host wall-clock, so it is never part of
	// "all" (every other table is deterministic virtual time) and must be
	// requested by name.
	if wanted["engine"] {
		add("engine", func() (string, error) {
			rows, err := report.RunEngine(s)
			if err != nil {
				return "", err
			}
			report.RecordEngineRows(metrics, rows)
			return report.EngineTable(rows), nil
		})
	}
	if want("exploits") {
		add("exploits", func() (string, error) { return report.ExploitTableN(w) })
	}
	if want("ablation") {
		add("ablation", report.Ablation)
	}
	if want("tcb") {
		add("tcb", report.TCBTable)
	}
	if want("faults") {
		add("faults", func() (string, error) { return report.FaultTable(*seeds, w) })
	}

	out, err := report.RunJobs(jobs, w)
	if err != nil {
		fail(err)
	}
	for _, t := range out {
		fmt.Println(t)
	}

	if *benchjson != "" {
		if err := metrics.WriteJSON(*benchjson); err != nil {
			fail(err)
		}
	}
	if *baseline != "" {
		base, err := report.ReadBaseline(*baseline)
		if err != nil {
			fail(err)
		}
		fmt.Println(report.DeltaReport(base, metrics.Metrics()))
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
	}
}
