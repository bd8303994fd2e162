package main

import (
	"bufio"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"time"

	"sva/internal/kernel"
	"sva/internal/telemetry"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the top level
	Batch  int    `json:"batch"`  // -1 outside the timed batches
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // wall clock, from the tracer's start
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"` // process CPU time spent inside the span
}

// tracer records spans in memory.  A nil *tracer records nothing, so the
// untraced run pays one nil compare per call site.  The benchmark calls
// into the program from one goroutine, so the open-span stack gives each
// span its parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	batch int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), batch: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Batch: t.batch, Name: name,
		Start: int64(time.Since(t.t0)), CPU: int64(cpuNow())})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].CPU = int64(cpuNow()) - t.spans[id].CPU
	// Spans close in LIFO order; pop through id.
	for n := len(t.open); n > 0; n-- {
		top := t.open[n-1]
		t.open = t.open[:n-1]
		if top == id {
			break
		}
	}
}

func (t *tracer) setBatch(b int) {
	if t != nil {
		t.batch = b
	}
}

// durationsMs returns the durations of every span named name that belongs
// to a timed batch.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Batch >= 0 {
			out = append(out, float64(s.CPU)/1e6)
		}
	}
	return out
}

// spanStat is the CPU time spent in every span of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"` // total minus the time of child spans
}

// selfTimes sums, per span name, the total and the self CPU time.
func (t *tracer) selfTimes() map[string]*spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.CPU
		}
	}
	m := map[string]*spanStat{}
	for i, s := range t.spans {
		a := m[s.Name]
		if a == nil {
			a = &spanStat{}
			m[s.Name] = a
		}
		a.Count++
		a.TotalMs += float64(s.CPU) / 1e6
		a.SelfMs += float64(s.CPU-child[i]) / 1e6
	}
	return m
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is the program's own accounting summed over a set of systems:
// VM counters over every VCPU, metapool statistics, live metapool
// objects, virtual cycles and ring NIC activity.
type counters struct {
	VM      telemetry.VMStats
	Checks  telemetry.CheckStats
	Objects uint64
	Cycles  uint64
	Bells   uint64
	Frames  uint64
	Intr    uint64
	BadDesc uint64
}

// snapshot reads the counters of the given systems (between runs only:
// during an SMP run the per-VCPU shards are live).
func snapshot(systems ...*kernel.System) counters {
	var c counters
	for _, s := range systems {
		for _, v := range s.VM.VCPUs() {
			c.VM.Add(v.Counters)
			c.Cycles += v.CPU.Cycles
		}
		snap := s.VM.Pools.Snapshot()
		c.Checks.Add(snap.Totals)
		for _, p := range snap.Pools {
			c.Objects += uint64(p.Objects)
		}
		nic := s.VM.Mach.NIC
		c.Bells += nic.Doorbells
		c.Frames += nic.Completed
		c.Intr += nic.IntrRaised
		c.BadDesc += nic.BadDescs
	}
	return c
}

// combine returns a+b (sign=+1) or a-b (sign=-1), field by field; every
// field of counters and of its nested blocks is a uint64.
func combine(a, b counters, sign int) counters {
	var out counters
	var walk func(dst, x, y reflect.Value)
	walk = func(dst, x, y reflect.Value) {
		for i := 0; i < dst.NumField(); i++ {
			f := dst.Field(i)
			if f.Kind() == reflect.Struct {
				walk(f, x.Field(i), y.Field(i))
				continue
			}
			if sign > 0 {
				f.SetUint(x.Field(i).Uint() + y.Field(i).Uint())
			} else {
				f.SetUint(x.Field(i).Uint() - y.Field(i).Uint())
			}
		}
	}
	walk(reflect.ValueOf(&out).Elem(), reflect.ValueOf(a), reflect.ValueOf(b))
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
