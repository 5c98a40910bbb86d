package workload

import (
	"runtime"
	"testing"

	"repro/internal/adversary"
)

// shardedRun executes a full scenario at the given shard count and returns
// everything observable: per-round stats, the summary, satisfactions, the
// privacy facets and the incremental ground truth.
type shardObservation struct {
	rounds   []RoundStats
	summary  Summary
	sat      []float64
	privacy  []float64
	gt       []float64
	served   []bool
	gathered int64
	fakes    int64
	gateFail int64
}

func observeSharded(t *testing.T, shards int, cfg Config) shardObservation {
	t.Helper()
	cfg.Shards = shards
	e, err := NewEngine(cfg, newEigen(t, cfg.NumPeers))
	if err != nil {
		t.Fatal(err)
	}
	var rounds []RoundStats
	for i := 0; i < 25; i++ {
		rounds = append(rounds, e.Round())
	}
	gt, served := groundTruth(e)
	sat := make([]float64, cfg.NumPeers)
	priv := make([]float64, cfg.NumPeers)
	for u := range sat {
		sat[u] = e.UserSatisfaction(u)
		priv[u] = e.PrivacyFacetOf(u)
	}
	return shardObservation{
		rounds:   rounds,
		summary:  e.Summarize(),
		sat:      sat,
		privacy:  priv,
		gt:       gt,
		served:   served,
		gathered: e.Gatherer().Gathered,
		fakes:    e.FakeReports,
		gateFail: e.GateFailures,
	}
}

// groundTruth reads each provider's realized mean quality and whether it
// ever served through the engine's served-set accessors.
func groundTruth(e *Engine) (gt []float64, served []bool) {
	n := e.Network().N()
	gt = make([]float64, n)
	served = make([]bool, n)
	for p := range gt {
		gt[p] = e.ProviderQuality(p)
	}
	for _, p := range e.ServedProviders() {
		served[p] = true
	}
	return gt, served
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardCountInvariance is the determinism contract of the scatter-gather
// pipeline: equal seeds produce bit-for-bit identical results for every
// shard count, over a scenario exercising gating, activity skew, colluders
// and the ledger.
func TestShardCountInvariance(t *testing.T) {
	cfg := Config{
		Seed:     42,
		NumPeers: 60,
		Mix: adversary.Mix{Fractions: map[adversary.Class]float64{
			adversary.Honest:    0.6,
			adversary.Malicious: 0.2,
			adversary.Colluder:  0.2,
		}},
		RecomputeEvery: 3,
		TrustGate:      0.2,
		ActivitySkew:   0.8,
		Disclosure:     0.7,
	}
	ref := observeSharded(t, 1, cfg)
	counts := []int{2, 4, 7, runtime.GOMAXPROCS(0)}
	for _, k := range counts {
		got := observeSharded(t, k, cfg)
		if len(got.rounds) != len(ref.rounds) {
			t.Fatalf("shards=%d: round count diverged", k)
		}
		for i := range ref.rounds {
			if got.rounds[i] != ref.rounds[i] {
				t.Fatalf("shards=%d: round %d stats %+v != %+v", k, i, got.rounds[i], ref.rounds[i])
			}
		}
		if got.summary != ref.summary {
			t.Fatalf("shards=%d: summary\n%+v\n!=\n%+v", k, got.summary, ref.summary)
		}
		if !equalF64(got.sat, ref.sat) {
			t.Fatalf("shards=%d: satisfactions diverged", k)
		}
		if !equalF64(got.privacy, ref.privacy) {
			t.Fatalf("shards=%d: privacy facets diverged", k)
		}
		if !equalF64(got.gt, ref.gt) {
			t.Fatalf("shards=%d: ground truth diverged", k)
		}
		for i := range ref.served {
			if got.served[i] != ref.served[i] {
				t.Fatalf("shards=%d: served set diverged at %d", k, i)
			}
		}
		if got.gathered != ref.gathered || got.fakes != ref.fakes || got.gateFail != ref.gateFail {
			t.Fatalf("shards=%d: counters diverged: %+v vs %+v", k, got, ref)
		}
	}
	// Changing the shard count mid-run, by restoring the state into an
	// engine at another count, keeps the trajectory too.
	var st EngineState
	for i, leg := range []struct{ shards, rounds int }{{1, 5}, {4, 10}, {1, 10}} {
		c := cfg
		c.Shards = leg.shards
		e, err := NewEngine(c, newEigen(t, cfg.NumPeers))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := e.Restore(st); err != nil {
				t.Fatal(err)
			}
		}
		e.Run(leg.rounds)
		if st, err = e.State(); err != nil {
			t.Fatal(err)
		}
		if i == 2 && e.Summarize() != ref.summary {
			t.Fatalf("mid-run shard change perturbed the trajectory:\n%+v\n!=\n%+v", e.Summarize(), ref.summary)
		}
	}
}

// TestShardsValidation rejects negative shard counts and defaults zero.
func TestShardsValidation(t *testing.T) {
	if _, err := NewEngine(Config{NumPeers: 10, Shards: -1}, newEigen(t, 10)); err == nil {
		t.Fatal("negative shard count accepted")
	}
	e, err := NewEngine(Config{NumPeers: 10}, newEigen(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 1 {
		t.Fatalf("zero-value shards resolved to %d, want 1", e.Shards())
	}
}

// TestGroundTruthMatchesLogScan pins the incremental accumulators to an
// independent scan of every interaction outcome: a scatter delegate runs
// each round through SimulateChunk — the same simulation the local scatter
// performs — and folds the outcomes into per-provider sums in interaction
// order, refusals counting as quality 0.
func TestGroundTruthMatchesLogScan(t *testing.T) {
	const n = 50
	cfg := Config{Seed: 21, NumPeers: n, Mix: mixMalicious(0.4), Shards: 3}
	e, err := NewEngine(cfg, newEigen(t, n))
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, n)
	counts := make([]int, n)
	total := 0
	e.SetScatterDelegate(func(plans []PlannedInteraction, scores []float64, gate float64, pool []int, round int) ([]InteractionOutcome, bool) {
		out := e.SimulateChunk(plans, scores, gate, pool, round)
		for _, o := range out {
			if o.Absent || o.GateFailed || o.Provider < 0 {
				continue
			}
			q := o.Quality
			if o.Refused {
				q = 0
			}
			sums[o.Provider] += q
			counts[o.Provider]++
			total++
		}
		return out, true
	})
	e.Run(15)
	gt, served := groundTruth(e)
	want := make([]float64, n)
	for p := range want {
		want[p] = 1
		if counts[p] > 0 {
			want[p] = sums[p] / float64(counts[p])
		}
	}
	if !equalF64(gt, want) {
		t.Fatalf("incremental ground truth diverged from outcome scan:\n%v\n%v", gt, want)
	}
	for p := range counts {
		if (counts[p] > 0) != served[p] {
			t.Fatalf("served[%d] = %v, outcome scan counted %d", p, served[p], counts[p])
		}
	}
	cum := e.CumulativeStats()
	if cum.Interactions != total {
		t.Fatalf("cumulative interactions %d != scanned outcomes %d", cum.Interactions, total)
	}
	if cum.Round != 15 {
		t.Fatalf("cumulative round = %d, want 15", cum.Round)
	}
}

// TestPlanScatterZeroAllocs pins the round buffers: once a few rounds have
// sized them, planning and scattering a round at one shard allocate
// nothing — under best-response selection with everyone present, and under
// proportional selection with churn and activity skew. The remaining
// allocations of a round are first-touch state growth in the gather.
func TestPlanScatterZeroAllocs(t *testing.T) {
	cases := map[string]struct {
		cfg   Config
		leave []int
	}{
		"best": {cfg: Config{Seed: 51, NumPeers: 300, Mix: mixMalicious(0.2), TrustGate: 0.2}},
		"proportional churn skew": {
			cfg:   Config{Seed: 52, NumPeers: 300, Mix: mixMalicious(0.2), TrustGate: 0.2, Selection: SelectProportional, ActivitySkew: 0.8},
			leave: []int{3, 40, 41, 42, 200},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			tc.cfg.Shards = 1
			e, err := NewEngine(tc.cfg, newEigen(t, tc.cfg.NumPeers))
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range tc.leave {
				if err := e.SetPeerActive(u, false); err != nil {
					t.Fatal(err)
				}
			}
			e.Run(10)
			scores := e.Mechanism().ScoresView()
			pool := e.activePool()
			in := roundInputs{scores: scores, gate: e.trustGate(scores), pool: pool, round: len(e.rounds)}
			if a := testing.AllocsPerRun(20, func() {
				e.planRound(pool)
				e.scatter(in)
			}); a != 0 {
				t.Fatalf("plan and scatter allocate %v times per round", a)
			}
		})
	}
}
