package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the benchmark's declaration at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// asMetrics turns declared metrics into a metric set checkMetrics reads.
func asMetrics(list []declared) map[string]metric {
	m := map[string]metric{}
	for _, x := range list {
		m[x.Name] = metric{Value: 1, Unit: x.Unit}
	}
	return m
}

// selfRun is one child run of the self-test.
type selfRun struct {
	res  result
	rec  record
	exit int
}

// runChild runs this binary on one workload and reads back its printed
// result and its run record.
func runChild(rev, workload string, seconds string, trace int, extra ...string) (selfRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return selfRun{}, err
	}
	args := append([]string{"-workload", workload, "-seed", "7", "-seconds", seconds,
		"-trace", fmt.Sprint(trace), "-rev", rev}, extra...)
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	var r selfRun
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			return r, err
		}
		r.exit = ee.ExitCode()
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		return r, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	data, err := os.ReadFile(recordPath(workload, 7, trace == 1))
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r.rec)
}

// checkMetrics holds a printed metric set to the spec: every name present
// with its unit, nothing else, and (end-to-end only) nothing reading 0.
func checkMetrics(what string, got map[string]metric, spec []metricSpec, nonzero bool) error {
	if len(got) != len(spec) {
		return fmt.Errorf("%s: %d metrics printed, spec has %d", what, len(got), len(spec))
	}
	for _, s := range spec {
		m, ok := got[s.name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s missing", what, s.name)
		case m.Unit != s.unit:
			return fmt.Errorf("%s: metric %s has unit %q, want %q", what, s.name, m.Unit, s.unit)
		case nonzero && m.Value == 0:
			return fmt.Errorf("%s: metric %s reads 0", what, s.name)
		}
	}
	return nil
}

// sameVirtual requires two runs' virtual figures to be bit-identical.
func sameVirtual(what string, a, b map[string]float64) error {
	if len(a) == 0 || len(a) != len(b) {
		return fmt.Errorf("%s: %d vs %d virtual figures", what, len(a), len(b))
	}
	for k, x := range a {
		if y, ok := b[k]; !ok || x != y {
			return fmt.Errorf("%s: virtual %s differs: %v vs %v", what, k, x, y)
		}
	}
	return nil
}

// runSelfTest is the benchmark's own smoke and determinism test:
//   - BENCHMARK.json names exactly the workloads and metrics this binary
//     prints, with the same units;
//   - every workload passes its output checks and prints every metric;
//   - every virtual figure is bit-identical across two run lengths, across
//     two runs, and between the untraced and the traced run;
//   - a guest program forced to return a negative code is counted as a
//     failure, sets fail_frac and fails the command.
func runSelfTest(rev string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		return fmt.Errorf("BENCHMARK.json workloads %v, binary has %v", names, workloadNames())
	}
	if err := checkMetrics("BENCHMARK.json end_to_end", asMetrics(bf.EndToEnd), endToEndSpec, false); err != nil {
		return err
	}
	if err := checkMetrics("BENCHMARK.json per_layer", asMetrics(bf.PerLayer), perLayerSpec(), false); err != nil {
		return err
	}

	for _, w := range workloadNames() {
		short, err := runChild(rev, w, "1", 0)
		if err != nil {
			return err
		}
		if short.exit != 0 || !short.res.Correct || short.res.Failed != 0 {
			return fmt.Errorf("%s: exit %d, correct %v, %d failed: %v", w, short.exit, short.res.Correct, short.res.Failed, short.rec.Failures)
		}
		if err := checkMetrics(w+" untraced", short.res.Metrics, endToEndSpec, true); err != nil {
			return err
		}
		long, err := runChild(rev, w, "2", 0)
		if err != nil {
			return err
		}
		if err := sameVirtual(w+" 1s vs 2s", short.rec.Virtual, long.rec.Virtual); err != nil {
			return err
		}
		again, err := runChild(rev, w, "1", 0)
		if err != nil {
			return err
		}
		if err := sameVirtual(w+" run vs rerun", short.rec.Virtual, again.rec.Virtual); err != nil {
			return err
		}
		traced, err := runChild(rev, w, "2", 1)
		if err != nil {
			return err
		}
		if traced.exit != 0 || !traced.res.Correct {
			return fmt.Errorf("%s traced: exit %d, correct %v: %v", w, traced.exit, traced.res.Correct, traced.rec.Failures)
		}
		if err := checkMetrics(w+" traced", traced.res.Metrics, perLayerSpec(), false); err != nil {
			return err
		}
		if err := sameVirtual(w+" untraced vs traced", short.rec.Virtual, traced.rec.Virtual); err != nil {
			return err
		}
		var frac float64
		for k, m := range traced.res.Metrics {
			if strings.HasSuffix(k, ".host_frac") {
				frac += m.Value
			}
		}
		if frac < 0.999 || frac > 1.001 {
			return fmt.Errorf("%s traced: host_frac values add to %v, want 1", w, frac)
		}
		fmt.Fprintf(os.Stderr, "selftest: %s ok (%d virtual figures identical)\n", w, len(short.rec.Virtual))
	}

	bad, err := runChild(rev, "hbench", "1", 1, "-inject-fail")
	if err != nil {
		return err
	}
	if bad.exit == 0 || bad.res.Correct || bad.res.Failed == 0 || bad.res.Metrics["fail_frac"].Value <= 0 {
		return fmt.Errorf("forced negative return not counted: exit %d, correct %v, failed %d, fail_frac %v",
			bad.exit, bad.res.Correct, bad.res.Failed, bad.res.Metrics["fail_frac"].Value)
	}
	fmt.Fprintf(os.Stderr, "selftest: forced failure counted (%d of %d ops failed, exit %d)\n",
		bad.res.Failed, bad.res.Attempted, bad.exit)
	return nil
}
