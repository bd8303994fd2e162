package main

import (
	"fmt"
	"time"

	"sva/internal/bytecode"
	"sva/internal/ir"
	"sva/internal/kernel"
	"sva/internal/safety"
	"sva/internal/typecheck"
	"sva/internal/userland"
	"sva/internal/vm"
)

// loadTimes is one pass of the load path, stage by stage.
type loadTimes struct {
	build, compile, encode, decode, verify, check, boot time.Duration
	bytes                                               int
}

func (t loadTimes) total() time.Duration {
	return t.build + t.compile + t.encode + t.decode + t.verify + t.check + t.boot
}

// scaled multiplies every stage time by f.
func (t loadTimes) scaled(f float64) loadTimes {
	for _, d := range []*time.Duration{&t.build, &t.compile, &t.encode, &t.decode, &t.verify, &t.check, &t.boot} {
		*d = time.Duration(float64(*d) * f)
	}
	return t
}

// image is a kernel that went through the load path: the decoded,
// verified kernel module plus the user programs, prepared for booting any
// number of independent machines.
type image struct {
	si    *kernel.SharedImage
	users []*userland.U
}

// boot starts one more machine from the image.
func (im *image) boot(tr *tracer) (*kernel.System, error) {
	sp := tr.begin("kernel.NewSystemShared")
	defer tr.end(sp)
	return kernel.NewSystemShared(im.si)
}

// load runs the whole load path once: kernel.Build, safety.Compile (for
// sva-safe), bytecode.Encode, bytecode.Decode, ir.VerifyModule and
// typecheck.Check on the decoded kernel, then a first boot from it.  The
// user programs are built by mkUsers and safety-compiled together with the
// kernel.  A structural or metapool type error is an output-check failure.
func load(cfg vm.Config, mkUsers func() []*userland.U, tr *tracer) (*image, *kernel.System, loadTimes, error) {
	var t loadTimes
	step := func(name string, d *time.Duration, f func() error) error {
		sp := tr.begin(name)
		t0 := cpuNow()
		err := f()
		*d = cpuNow() - t0
		tr.end(sp)
		return err
	}
	var (
		img   *kernel.Image
		users []*userland.U
		prog  *safety.Program
		data  []byte
		dec   *ir.Module
	)
	_ = step("kernel.Build", &t.build, func() error {
		img = kernel.Build()
		users = mkUsers()
		return nil
	})
	extra := make([]*ir.Module, len(users))
	for i, u := range users {
		extra[i] = u.M
	}
	if cfg == vm.ConfigSafe {
		if err := step("safety.Compile", &t.compile, func() (err error) {
			prog, err = safety.Compile(kernel.SafetyConfig(true), append([]*ir.Module{img.Kernel}, extra...)...)
			return err
		}); err != nil {
			return nil, nil, t, fmt.Errorf("safety compile: %w", err)
		}
	}
	if err := step("bytecode.Encode", &t.encode, func() (err error) {
		data, err = bytecode.Encode(img.Kernel)
		return err
	}); err != nil {
		return nil, nil, t, fmt.Errorf("encode: %w", err)
	}
	t.bytes = len(data)
	if err := step("bytecode.Decode", &t.decode, func() (err error) {
		dec, err = bytecode.Decode(data)
		return err
	}); err != nil {
		return nil, nil, t, fmt.Errorf("decode: %w", err)
	}
	if err := step("ir.VerifyModule", &t.verify, func() error {
		if errs := ir.VerifyModule(dec); len(errs) != 0 {
			return fmt.Errorf("decoded kernel does not verify (%d errors): %v", len(errs), errs[0])
		}
		return nil
	}); err != nil {
		return nil, nil, t, err
	}
	if cfg == vm.ConfigSafe {
		if err := step("typecheck.Check", &t.check, func() error {
			if errs := typecheck.New(dec.Metapools).Check(dec); len(errs) != 0 {
				return fmt.Errorf("decoded kernel fails the metapool type check (%d errors): %v", len(errs), errs[0])
			}
			return nil
		}); err != nil {
			return nil, nil, t, err
		}
	}
	// Shared images are renumbered once up front; domain boots never
	// renumber (kernel.BuildSharedWith does the same).
	for _, m := range append([]*ir.Module{dec}, extra...) {
		for _, f := range m.Funcs {
			f.Renumber()
		}
	}
	im := &image{
		si: &kernel.SharedImage{
			Img:   &kernel.Image{Kernel: dec, Entry: img.Entry, Ledger: img.Ledger},
			Prog:  prog,
			Cfg:   cfg,
			Extra: extra,
			Cache: vm.NewSharedCache(),
		},
		users: users,
	}
	var sys *kernel.System
	if err := step("kernel.boot", &t.boot, func() (err error) {
		sys, err = kernel.NewSystemShared(im.si)
		return err
	}); err != nil {
		return nil, nil, t, fmt.Errorf("boot: %w", err)
	}
	return im, sys, t, nil
}
