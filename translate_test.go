package sva

import (
	"testing"

	"sva/internal/apps"
	"sva/internal/domain"
	"sva/internal/exploits"
	"sva/internal/hbench"
	"sva/internal/ir"
	"sva/internal/kernel"
	"sva/internal/netload"
	"sva/internal/userland"
)

// TestBuiltinImagesTranslate: every configuration runs on the threaded
// engine, so every defined function of the kernel and of each built-in
// userland image must translate under all four configs.  A function
// that declined would silently stay on the interpreter — and, since
// failed translations are not memoized, re-run the translator on every
// call.  The direct configs still count no Translations: the counter is
// the modeled translator's work, not the host's.
func TestBuiltinImagesTranslate(t *testing.T) {
	images := []struct {
		name  string
		build func() *userland.U
	}{
		{"userland", userland.BuildTestPrograms},
		{"hbench", hbench.BuildBenchModule},
		{"exploits", exploits.BuildAttackModule},
		{"apps", apps.BuildAppsModule},
		{"netload", netload.BuildModule},
		{"chanprogs", domain.BuildChanProgs},
	}
	for _, cfg := range hbench.Configs {
		for _, im := range images {
			u := im.build()
			sys, err := kernel.NewSystem(cfg, true, u.M)
			if err != nil {
				t.Fatalf("%v/%s: boot: %v", cfg, im.name, err)
			}
			for _, m := range append([]*ir.Module{sys.Img.Kernel}, sys.Extra...) {
				if _, err := sys.VM.TranslateModule(m); err != nil {
					t.Errorf("%v/%s: %v", cfg, im.name, err)
				}
			}
			if n := sys.VM.Counters.Translations; cfg.Translated() != (n > 0) {
				t.Errorf("%v/%s: Translations = %d after translating every function", cfg, im.name, n)
			}
		}
	}
}
