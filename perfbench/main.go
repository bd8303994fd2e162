// Command perfbench is the repository benchmark: it runs one named
// workload against the SVA stack (load path, virtual machine, metapools,
// ring NIC, supervised domains) and prints every metric by name with its
// unit.  The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// splits its measured time into an untraced half and a traced half (spans
// around every call the benchmark makes, plus a CPU profile folded by
// layer) and the metrics are the per-layer ones.  Every guest output is
// checked; a failed check sets "correct" to false and the exit code to 1.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload hbench|net|reboot -seed N -seconds S -trace 0|1
//	perfbench -selftest          # smoke + determinism self-test
//	perfbench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// outDir receives the full run records and span files.  It lives in the
// build directory so a run writes nothing outside it.
const outDir = ".bench_build/perfbench/out"

type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	rev        string
	injectFail bool
}

func main() {
	var o options
	var traceN int
	var selftest, compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceN, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.StringVar(&o.rev, "rev", "none", "source revision recorded in the run record")
	flag.BoolVar(&o.injectFail, "inject-fail", false, "add a guest program known to return a negative code (self-test of the failure path)")
	flag.BoolVar(&selftest, "selftest", false, "run the benchmark self-test")
	flag.BoolVar(&compare, "compare", false, "compare two run records given as arguments")
	flag.Parse()
	o.trace = traceN == 1

	switch {
	case selftest:
		if err := runSelfTest(o.rev); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench: selftest passed")
		return
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare needs two run records")
			os.Exit(2)
		}
		if err := compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: compare:", err)
			os.Exit(3)
		}
		return
	}

	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": rec.Provenance, "fingerprint": rec.Fingerprint})
	fmt.Println(string(prov))
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full run record written to outDir: the printed result
// plus everything needed to decide whether two runs are comparable.
type record struct {
	Workload    string     `json:"workload"`
	Trace       bool       `json:"trace"`
	Provenance  provenance `json:"provenance"`
	Fingerprint string     `json:"fingerprint"`
	Params      any        `json:"params"`
	Batches     int        `json:"batches"`
	// WallSeconds is the timed phase's wall time; the metrics use the
	// process CPU clock.
	WallSeconds float64 `json:"wall_seconds"`
	// Speed records the host-speed calibration of the timed phase.
	Speed *speedStats `json:"speed,omitempty"`
	// Virtual holds every virtual-time figure the run measured, in both
	// traced and untraced runs, so the self-test can hold them equal.
	Virtual    map[string]float64   `json:"virtual"`
	Failures   []string             `json:"failures,omitempty"`
	SelfTimeMs map[string]*spanStat `json:"self_time_ms,omitempty"`
	Result     result               `json:"result"`
}

func recordPath(workload string, seed uint64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

func writeRecord(rec *record) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(recordPath(rec.Workload, rec.Provenance.Seed, rec.Trace), data, 0o644)
}

// compareRecords prints per-metric differences between two run records,
// refusing records of different workloads or workload fingerprints: a
// delta between two different workloads is not a measurement.
func compareRecords(w *os.File, pathA, pathB string) error {
	var recs [2]record
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Workload != b.Workload || a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("incomparable: %s/%s vs %s/%s (workload/fingerprint differ)",
			a.Workload, a.Fingerprint, b.Workload, b.Fingerprint)
	}
	if a.Trace != b.Trace {
		return fmt.Errorf("incomparable: a traced and an untraced run")
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s fingerprint %s: %s -> %s\n", a.Workload, a.Fingerprint, a.Provenance.Rev, b.Provenance.Rev)
	for _, n := range names {
		ma := a.Result.Metrics[n]
		mb, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-44s %14.6g %s  (missing in second)\n", n, ma.Value, ma.Unit)
			continue
		}
		delta := "n/a"
		if ma.Value != 0 {
			delta = strconv.FormatFloat(100*(mb.Value-ma.Value)/ma.Value, 'f', 2, 64) + "%"
		}
		fmt.Fprintf(w, "%-44s %14.6g -> %14.6g %-10s %s\n", n, ma.Value, mb.Value, ma.Unit, delta)
	}
	return nil
}
