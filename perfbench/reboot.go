package main

import (
	"errors"
	"fmt"
	"time"

	"sva/internal/abi"
	"sva/internal/domain"
	"sva/internal/netload"
	"sva/internal/userland"
	"sva/internal/vm"
)

// rebootParams fixes the reboot workload: a two-domain fleet on one shared
// sva-safe image; domain 0 is killed and microrebooted through the whole
// backoff schedule, serving a short ring burst after every reboot, while
// domain 1 probes its channel to domain 0.
type rebootParams struct {
	Config      string
	Domains     int
	MaxReboots  int
	BackoffBase uint64
	BurstVCPUs  int
	BurstPerCPU int
	BurstGap    int
}

const (
	rebootBurstVCPUs  = 2
	rebootBurstPerCPU = 64
	rebootBurstGap    = 0
)

type rebootWL struct {
	nu, cu  *userland.U
	img     *image
	sup     *domain.Supervisor
	retired counters // final counters of every discarded machine
	bal     []float64
	burstMs []float64
}

func newReboot(uint64) workload { return &rebootWL{} }

func (w *rebootWL) params() any {
	return rebootParams{Config: vm.ConfigSafe.String(), Domains: 2, MaxReboots: domain.DefaultMaxReboots,
		BackoffBase: domain.DefaultBackoffBase, BurstVCPUs: rebootBurstVCPUs,
		BurstPerCPU: rebootBurstPerCPU, BurstGap: rebootBurstGap}
}

func (w *rebootWL) users() []*userland.U {
	return []*userland.U{netload.BuildModule(), domain.BuildChanProgs()}
}

func (w *rebootWL) prepare(e *env) error {
	w.img = e.img
	w.nu, w.cu = e.img.users[0], e.img.users[1]
	w.retired = snapshot(e.sys) // the set-up boot is work done before the runs
	return nil
}

// fleet boots a fresh connected two-domain supervisor.
func (w *rebootWL) fleet(e *env) (*domain.Supervisor, error) {
	sp := e.tr.begin("domain.NewSupervisor")
	sup, err := domain.NewSupervisor(w.img.si, 2)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sup.Connect(0, 1)
	return sup, nil
}

// probe sends one channel message from domain 1 to domain 0 and checks
// the verdict: -EHOSTDOWN while domain 0 is down, success while it runs.
func (w *rebootWL) probe(e *env, sup *domain.Supervisor, want int64, when string) error {
	sp := e.tr.begin("kernel.RunUser")
	got, err := sup.Domains[1].Sys.RunUser(w.cu.M.Func("chan_send"), 1, 50_000_000)
	e.tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe (%s): %w", when, err)
	}
	e.check(1, int64(got) == want, "probe (%s): send rc = %d, want %d", when, int64(got), want)
	return nil
}

// rebootOnce kills domain 0, checks the fail-closed probe, microreboots
// it, serves the first burst on the new incarnation and checks the probe
// again.  It returns the first burst's cell.
func (w *rebootWL) rebootOnce(e *env, sup *domain.Supervisor, r int) (cell, error) {
	d := sup.Domains[0]
	sp := e.tr.begin("domain.Supervisor.Kill")
	sup.Kill(0, domain.CauseInduced, "induced kill (benchmark)")
	e.tr.end(sp)
	if err := w.probe(e, sup, -abi.EHOSTDOWN, fmt.Sprintf("dead #%d", r)); err != nil {
		return cell{}, err
	}
	dead := d.Sys
	sp = e.tr.begin("domain.Supervisor.Reboot")
	err := sup.Reboot(0)
	e.tr.end(sp)
	if err != nil {
		return cell{}, fmt.Errorf("reboot %d: %w", r, err)
	}
	w.retired = combine(w.retired, snapshot(dead), 1)
	bt := cpuNow()
	c, err := serveCell(e, d.Sys, w.nu, rebootBurstVCPUs, rebootBurstPerCPU, rebootBurstGap)
	w.burstMs = append(w.burstMs, ms(cpuNow()-bt))
	if err != nil {
		return cell{}, err
	}
	if err := w.probe(e, sup, 0, fmt.Sprintf("recovered #%d", r)); err != nil {
		return cell{}, err
	}
	return c, nil
}

// retire ends a fleet past its reboot budget: one more kill must be
// refused a reboot with ErrPermanentFail and leave the channel fail-closed.
func (w *rebootWL) retire(e *env, sup *domain.Supervisor) error {
	sup.Kill(0, domain.CauseInduced, "induced kill (past budget)")
	err := sup.Reboot(0)
	e.check(1, errors.Is(err, domain.ErrPermanentFail), "reboot past budget: err = %v, want permanent fail", err)
	if err := w.probe(e, sup, -abi.EHOSTDOWN, "permanent fail"); err != nil {
		return err
	}
	for _, d := range sup.Domains {
		w.retired = combine(w.retired, snapshot(d.Sys), 1)
	}
	return nil
}

// virtual runs one whole recovery cycle on a fresh fleet, plus one
// native boot for the overhead.
func (w *rebootWL) virtual(e *env) (map[string]float64, error) {
	sup, err := w.fleet(e)
	if err != nil {
		return nil, err
	}
	var boot uint64
	var first cell
	for r := 1; r <= sup.MaxReboots; r++ {
		c, err := w.rebootOnce(e, sup, r)
		if err != nil {
			return nil, err
		}
		if r == 1 {
			first = c
		}
		boot += sup.Domains[0].BootCycles
	}
	if err := w.retire(e, sup); err != nil {
		return nil, err
	}
	_, nsys, _, err := load(vm.ConfigNative, w.users, nil)
	if err != nil {
		return nil, fmt.Errorf("native load: %w", err)
	}
	perBoot := float64(boot) / float64(sup.MaxReboots)
	return map[string]float64{
		"vcycles_per_op":     perBoot,
		"vsafe_overhead_pct": 100 * (perBoot/float64(nsys.VM.CPU.Cycles) - 1),
		"vlat_p50_cycles":    float64(first.p.P50),
		"vlat_p99_cycles":    float64(first.p.P99),
		"vcapacity_rps":      first.p.RPS,
	}, nil
}

// batch is one microreboot plus its first burst.  When the fleet's budget
// is spent, the batch first retires it and boots a fresh one, so every
// third batch also carries a fleet boot.
func (w *rebootWL) batch(e *env) (uint64, time.Duration, error) {
	t0 := cpuNow()
	if w.sup == nil || w.sup.Domains[0].Reboots >= w.sup.MaxReboots {
		if w.sup != nil {
			if err := w.retire(e, w.sup); err != nil {
				return 0, 0, err
			}
		}
		sup, err := w.fleet(e)
		if err != nil {
			return 0, 0, err
		}
		w.sup = sup
	}
	c, err := w.rebootOnce(e, w.sup, w.sup.Domains[0].Reboots+1)
	if err != nil {
		return 0, 0, err
	}
	w.bal = append(w.bal, c.balance)
	return 1, cpuNow() - t0, nil
}

func (w *rebootWL) counters() counters {
	c := w.retired
	if w.sup != nil {
		for _, d := range w.sup.Domains {
			c = combine(c, snapshot(d.Sys), 1)
		}
	}
	return c
}

func (w *rebootWL) beginPhase() { w.bal, w.burstMs = nil, nil }

func (w *rebootWL) layer() map[string]float64 {
	return map[string]float64{
		"kernel.smp.balance":    median(w.bal),
		"domain.first_burst_ms": median(w.burstMs),
	}
}
