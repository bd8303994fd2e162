package metapool

import (
	"reflect"
	"testing"
)

// A quarantine verdict is fail-closed state and must survive everything
// short of a supervised domain rebuild — AddPool with the same name (guest
// re-registering the pool) and the supervisor's explicit ledger round-trip
// across a kernel microreboot.

// TestAddPoolStickyByName: re-registering a pool under a quarantined name
// inherits the verdict.
func TestAddPoolStickyByName(t *testing.T) {
	r := NewRegistry()
	old := NewPool("MPsticky", true, true, 16)
	r.AddPool(old)
	old.Quarantine()

	fresh := NewPool("MPsticky", true, true, 16)
	r.AddPool(fresh)
	if !fresh.IsQuarantined() {
		t.Fatal("fresh pool with quarantined name was admitted clean")
	}
	other := NewPool("MPother", true, true, 16)
	r.AddPool(other)
	if other.IsQuarantined() {
		t.Fatal("unrelated pool inherited a quarantine")
	}
}

// TestQuarantineLedgerRoundTrip: QuarantinedNames out of a dying
// registry, ApplyQuarantine into its replacement — the supervisor's
// cross-microreboot path.
func TestQuarantineLedgerRoundTrip(t *testing.T) {
	old := NewRegistry()
	for _, n := range []string{"MP1", "MP2", "MP3"} {
		old.AddPool(NewPool(n, true, true, 16))
	}
	old.Pools[0].Quarantine()
	old.Pools[2].Quarantine()

	names := old.QuarantinedNames()
	if want := []string{"MP1", "MP3"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("QuarantinedNames = %v, want %v", names, want)
	}

	next := NewRegistry()
	for _, n := range []string{"MP1", "MP2", "MP3"} {
		next.AddPool(NewPool(n, true, true, 16))
	}
	next.ApplyQuarantine(names)
	for i, want := range []bool{true, false, true} {
		if got := next.Pools[i].IsQuarantined(); got != want {
			t.Errorf("pool %s after round-trip: quarantined=%v, want %v", next.Pools[i].Name, got, want)
		}
	}
}
