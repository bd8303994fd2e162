package main

import (
	"fmt"

	"sva/internal/hbench"
)

// metricSpec names one reported metric and its unit.  BENCHMARK.json at
// the repository root lists the same names; the self-test holds the two
// in step.
type metricSpec struct{ name, unit string }

// endToEndSpec is what an untraced run prints, on every workload.
var endToEndSpec = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"host_ms_p50", "ms"},
	{"host_ms_p90", "ms"},
	{"sim_steps_per_s", "steps/s"},
	{"peak_rss_mb", "MB"},
	{"vcycles_per_op", "cycles"},
	{"vsafe_overhead_pct", "%"},
	{"vlat_p50_cycles", "cycles"},
	{"vlat_p99_cycles", "cycles"},
	{"vcapacity_rps", "op/s"},
}

// hbenchConfigs are the two kernel configurations the hbench workload
// compares, by the names their metrics carry.
var hbenchConfigNames = []string{"native", "sva-safe"}

// hbenchPrograms names the 16 HBench-OS rows: the Table 7 latency programs
// and the Table 8 bandwidth programs, one name per transfer size.
func hbenchPrograms() []string {
	var names []string
	for _, op := range hbench.LatencyOps {
		names = append(names, op.Prog)
	}
	for _, op := range hbench.BandwidthOps {
		names = append(names, bwName(op.Prog, op.Size))
	}
	return names
}

func bwName(prog string, size uint64) string { return fmt.Sprintf("%s_%dk", prog, size/1024) }

// perLayerSpec is what a traced run prints, on every workload.
func perLayerSpec() []metricSpec {
	spec := []metricSpec{
		{"kernel.build_ms", "ms"},
		{"safety.compile_ms", "ms"},
		{"bytecode.encode_ms", "ms"},
		{"bytecode.decode_ms", "ms"},
		{"bytecode.bytes", "bytes"},
		{"ir.verify_ms", "ms"},
		{"typecheck.check_ms", "ms"},
		{"kernel.boot_ms", "ms"},
		{"vm.steps_per_op", "steps/op"},
		{"vm.engine_step_frac", "frac"},
		{"vm.intrinsics_per_op", "count/op"},
		{"vm.memops_per_op", "count/op"},
		{"vm.translations", "count/op"},
		{"vm.interp.host_frac", "frac"},
		{"vm.engine.host_frac", "frac"},
		{"vm.traps_per_op", "count/op"},
		{"trap.host_frac", "frac"},
		{"metapool.page_hits", "count/op"},
		{"metapool.cache_hits", "count/op"},
		{"metapool.pend_hits", "count/op"},
		{"metapool.tree_descents", "count/op"},
		{"metapool.registered", "count/op"},
		{"metapool.absorbed", "count/op"},
		{"metapool.spilled", "count/op"},
		{"metapool.epoch_reclaims", "count/op"},
		{"metapool.checks_bounds", "count/op"},
		{"metapool.checks_ls", "count/op"},
		{"metapool.elided", "count/op"},
		{"metapool.live_objects_delta", "objects/batch"},
		{"metapool.reg_minus_drop_delta", "objects/batch"},
		{"metapool.host_frac", "frac"},
		{"hw.physmem.host_frac", "frac"},
		{"hw.physmem.lock_frac", "frac"},
		{"hw.ring.doorbells_per_req", "count/req"},
		{"hw.ring.frames_per_doorbell", "frames"},
		{"hw.ring.intr_per_req", "count/req"},
		{"hw.ring.bad_descs", "count"},
		{"kernel.smp.balance", "frac"},
		{"kernel.run_smp_ms", "ms"},
		{"domain.supervisor_boot_ms", "ms"},
		{"domain.reboot_ms", "ms"},
		{"domain.first_burst_ms", "ms"},
		{"netload.host_frac", "frac"},
		{"other.host_frac", "frac"},
		{"go.alloc_bytes_per_op", "bytes/op"},
		{"go.gc_frac", "frac"},
		{"fail_frac", "frac"},
		{"trace.overhead_pct", "%"},
	}
	for _, prog := range hbenchPrograms() {
		for _, cfg := range hbenchConfigNames {
			pre := "hbench." + prog + "." + cfg
			spec = append(spec, metricSpec{pre + ".host_ns_per_iter", "ns"}, metricSpec{pre + ".vcycles_per_iter", "cycles"})
		}
	}
	return spec
}
