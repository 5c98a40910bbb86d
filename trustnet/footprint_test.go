package trustnet

import (
	"context"
	"runtime"
	"testing"
)

// perUserStores is DESIGN.md's per-user byte budget ("Memory per user"), in
// bytes per user, for an engine with the none mechanism and no Join or
// Leave wave over the default Barabási–Albert friendship graph (m = 4).
// Each of the five summation trees keeps 2^⌈log2 n⌉ nodes of 8 bytes and
// one stale bit per node, 10.65 bytes per user at both 50k and 100k users.
var perUserStores = []struct {
	store string
	bytes float64
}{
	{"consumer", 48},
	{"provider", 16},
	{"quality sum", 8},
	{"feedback exposure", 8},
	{"privacy facet cache", 8},
	{"disclosure", 8},
	{"honesty override", 8},
	{"behaviour class", 1},
	{"friend index", 36},
	{"mechanism scores (none)", 8},
	{"trust", 8},
	{"trust started flag", 1},
	{"settled flags", 0.125},
	{"settled scratch", 1},
	{"dirty bitmaps (satisfaction, privacy, facet)", 3 * 0.125},
	{"summation trees", 5 * 10.65},
}

// TestPerUserHeapBudget pins what a user costs before any history builds
// up: the live heap a 50k-user none engine holds after one short epoch,
// divided by its users, stays within the per-store budget. Besides the
// stores, the bound allows 256 bytes per interaction of the epoch (a
// consumer's first override allocates room for eight, 128 bytes) and 256
// KiB for everything not sized by the population.
func TestPerUserHeapBudget(t *testing.T) {
	const users, interactions = 50000, 400
	budget := 0.0
	for _, s := range perUserStores {
		budget += s.bytes
	}
	budget += (interactions*256 + 256<<10) / float64(users)
	live := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	eng, err := Scenario{Peers: users, Seed: 3, Mechanism: MechanismSpec{Kind: "none"},
		EpochRounds: 1, InteractionsPerRound: interactions}.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	perUser := (float64(live()) - float64(before)) / users
	runtime.KeepAlive(eng)
	t.Logf("%.1f bytes per user, budget %.1f", perUser, budget)
	if perUser > budget {
		t.Fatalf("a user costs %.1f bytes of live heap, over the per-store budget of %.1f", perUser, budget)
	}
}
