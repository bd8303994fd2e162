package main

import (
	"fmt"
	"time"

	"sva/internal/kernel"
	"sva/internal/netload"
	"sva/internal/userland"
	"sva/internal/vm"
)

// netParams fixes the net workload: the ring-served socket server on
// sva-safe at two VCPUs, open loop at a fixed mean inter-arrival gap.
type netParams struct {
	Config        string
	VCPUs         int
	Gap           int // mean inter-arrival gap, virtual cycles
	PerCPU        int // requests per VCPU in each timed cell
	VirtualPer    int // requests per VCPU in the virtual-metric cells
	CapacityGap   int // gap of the saturation cell
	NativeCell    bool
	GeneratorSeed string
}

const (
	netVCPUs      = 2
	netGap        = 5500
	netPerCPU     = 500
	netVirtualPer = 1500
)

type netWL struct {
	u   *userland.U
	sys *kernel.System
	bal []float64
}

func newNet(uint64) workload { return &netWL{} }

func (w *netWL) params() any {
	return netParams{Config: vm.ConfigSafe.String(), VCPUs: netVCPUs, Gap: netGap, PerCPU: netPerCPU,
		VirtualPer: netVirtualPer, CapacityGap: 0, NativeCell: true,
		GeneratorSeed: "fixed by netload.MeasureOn (0x5eed)"}
}

func (w *netWL) users() []*userland.U { return []*userland.U{netload.BuildModule()} }

func (w *netWL) prepare(e *env) error {
	w.u, w.sys = e.img.users[0], e.sys
	// Warm the timed machine (translations, pools) with one cell.
	_, err := serveCell(e, w.sys, w.u, netVCPUs, netPerCPU, netGap)
	return err
}

// cell is one served cell, checked and measured.
type cell struct {
	p        netload.Point
	busy     uint64 // summed per-VCPU virtual cycles
	makespan uint64
	balance  float64
	badDescs uint64
}

// serveCell runs netload.MeasureOn and checks conservation: every issued
// request served, no bad checksum, no malformed descriptor.
func serveCell(e *env, sys *kernel.System, u *userland.U, vcpus, perCPU, gap int) (cell, error) {
	cyc0 := vcpuCycles(sys)
	bad0 := sys.VM.Mach.NIC.BadDescs
	sp := e.tr.begin("netload.MeasureOn")
	p, err := netload.MeasureOn(sys, u, vcpus, perCPU, gap)
	e.tr.end(sp)
	if err != nil {
		return cell{}, err
	}
	c := cell{p: p, badDescs: sys.VM.Mach.NIC.BadDescs - bad0}
	cyc1 := vcpuCycles(sys)
	for i, x := range cyc1 {
		var before uint64
		if i < len(cyc0) {
			before = cyc0[i]
		}
		d := x - before
		c.busy += d
		if d > c.makespan {
			c.makespan = d
		}
	}
	if c.makespan > 0 {
		c.balance = float64(c.busy) / float64(c.makespan*uint64(len(cyc1)))
	}
	want := vcpus * perCPU
	e.served += uint64(p.Served)
	e.check(uint64(want), p.Issued == want && p.Served == want && p.BadSums == 0 && c.badDescs == 0,
		"net cell: issued %d served %d of %d, %d bad checksums, %d bad descriptors",
		p.Issued, p.Served, want, p.BadSums, c.badDescs)
	return c, nil
}

func vcpuCycles(sys *kernel.System) []uint64 {
	var out []uint64
	for _, v := range sys.VM.VCPUs() {
		out = append(out, v.CPU.Cycles)
	}
	return out
}

// virtual serves three cells on fresh machines: the latency cell at the
// workload gap, a gap-0 saturation cell for capacity and per-request cost,
// and the same saturation cell on native for the overhead.
func (w *netWL) virtual(e *env) (map[string]float64, error) {
	fresh := func(im *image) (*kernel.System, error) { return im.boot(e.tr) }
	sys, err := fresh(e.img)
	if err != nil {
		return nil, err
	}
	lat, err := serveCell(e, sys, w.u, netVCPUs, netVirtualPer, netGap)
	if err != nil {
		return nil, err
	}
	sys, err = fresh(e.img)
	if err != nil {
		return nil, err
	}
	capc, err := serveCell(e, sys, w.u, netVCPUs, netVirtualPer, 0)
	if err != nil {
		return nil, err
	}
	nim, nsys, _, err := load(vm.ConfigNative, w.users, nil)
	if err != nil {
		return nil, fmt.Errorf("native load: %w", err)
	}
	nat, err := serveCell(e, nsys, nim.users[0], netVCPUs, netVirtualPer, 0)
	if err != nil {
		return nil, err
	}
	// Per-request cost is taken at saturation: below it the servers spin
	// between arrivals and busy time tracks the arrival gap, not the work.
	return map[string]float64{
		"vcycles_per_op":     float64(capc.busy) / float64(capc.p.Served),
		"vsafe_overhead_pct": 100 * (float64(capc.busy)/float64(nat.busy) - 1),
		"vlat_p50_cycles":    float64(lat.p.P50),
		"vlat_p99_cycles":    float64(lat.p.P99),
		"vcapacity_rps":      capc.p.RPS,
	}, nil
}

func (w *netWL) batch(e *env) (uint64, time.Duration, error) {
	t0 := cpuNow()
	c, err := serveCell(e, w.sys, w.u, netVCPUs, netPerCPU, netGap)
	if err != nil {
		return 0, 0, err
	}
	w.bal = append(w.bal, c.balance)
	return uint64(c.p.Served), cpuNow() - t0, nil
}

func (w *netWL) counters() counters { return snapshot(w.sys) }

func (w *netWL) beginPhase() { w.bal = nil }

func (w *netWL) layer() map[string]float64 {
	return map[string]float64{"kernel.smp.balance": median(w.bal)}
}
