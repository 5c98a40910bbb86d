package trustnet

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// sameBits reports bitwise float equality, with NaN matching NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestMeasurementPathsAgree pins that the epoch boundary and the facade
// reads measure through one reader: after every epoch, Assess and Summary
// report bit for bit the reputation facet, community conclusion and rank
// correlation the epoch recorded.
func TestMeasurementPathsAgree(t *testing.T) {
	for _, kind := range []string{"eigentrust", "powertrust", "powertrust-plain", "trustme", "anonrep", "none"} {
		t.Run(kind, func(t *testing.T) {
			sc, ok := ScenarioByName("baseline")
			if !ok {
				t.Fatal("baseline scenario missing")
			}
			sc.Mechanism = MechanismSpec{Kind: kind}
			eng, err := sc.NewEngine()
			if err != nil {
				t.Fatal(err)
			}
			for ep := 0; ep < 3; ep++ {
				st, err := eng.Epoch()
				if err != nil {
					t.Fatal(err)
				}
				a := eng.Assess()
				if !sameBits(a.Power, st.Reputation) {
					t.Fatalf("epoch %d: Assess().Power = %v, epoch Reputation = %v", ep, a.Power, st.Reputation)
				}
				if !sameBits(a.Community, st.Community) {
					t.Fatalf("epoch %d: Assess().Community = %v, epoch Community = %v", ep, a.Community, st.Community)
				}
				if tau := eng.Summary().Tau; !sameBits(tau, st.Tau) {
					t.Fatalf("epoch %d: Summary().Tau = %v, epoch Tau = %v", ep, tau, st.Tau)
				}
			}
		})
	}
}

// probeReports are external reports that leave the mechanism and the
// ledger with work the next epoch boundary has not yet folded in.
func probeReports(raters []int, ratee func(i int) int) []Report {
	out := make([]Report, len(raters))
	for i, r := range raters {
		out[i] = Report{TxID: uint64(1_000_000 + i), Rater: r, Ratee: ratee(i), Value: float64(i % 2)}
	}
	return out
}

// facadeReads lists the facade's facet reads.
var facadeReads = []struct {
	name string
	read func(*Engine) error
}{
	{"Summary", func(e *Engine) error { e.Summary(); return nil }},
	{"Assess", func(e *Engine) error { e.Assess(); return nil }},
	{"AssessAll", func(e *Engine) error { _, err := e.AssessAll(context.Background()); return err }},
}

// TestReadsDoNotPerturbRun: a facade read between epochs is pure. After
// reports are submitted mid-run, a run that reads Summary, Assess or
// AssessAll must record the same history and spend the same solver
// iterations as the run that does not read.
func TestReadsDoNotPerturbRun(t *testing.T) {
	raters := make([]int, 40)
	for i := range raters {
		raters[i] = 10 + i
	}
	reports := probeReports(raters, func(i int) int { return 60 + i%30 })
	run := func(t *testing.T, read func(*Engine) error) ([]byte, int64) {
		sc, _ := ScenarioByName("baseline")
		eng, err := sc.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := eng.Run(ctx, 2); err != nil {
			t.Fatal(err)
		}
		if err := eng.SubmitReports(reports...); err != nil {
			t.Fatal(err)
		}
		if err := read(eng); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(ctx, 3); err != nil {
			t.Fatal(err)
		}
		return histBytes(t, eng.History()), eng.ComputeIterations()
	}
	wantHist, wantIters := run(t, func(*Engine) error { return nil })
	for _, r := range facadeReads {
		t.Run(r.name, func(t *testing.T) {
			hist, iters := run(t, r.read)
			if !bytes.Equal(hist, wantHist) {
				t.Fatalf("reading %s between epochs changed the history", r.name)
			}
			if iters != wantIters {
				t.Fatalf("ComputeIterations = %d after reading %s, want %d", iters, r.name, wantIters)
			}
		})
	}
}

// TestFacadeReadKeepsSparseEqualDense: a facade read must not consume the
// ledger's dirty owners. Settled users whose privacy facet moved through
// external reports must still reach the next epoch's sparse tail, so its
// history stays bit-identical to the dense reference.
func TestFacadeReadKeepsSparseEqualDense(t *testing.T) {
	leave := make([]int, 0, 290)
	for u := 10; u < 300; u++ {
		leave = append(leave, u)
	}
	raters := make([]int, 40)
	for i := range raters {
		raters[i] = 100 + i
	}
	reports := probeReports(raters, func(i int) int { return i % 10 })
	run := func(t *testing.T, dense bool, read func(*Engine) error) []byte {
		eng := newEngine(t, Scenario{
			Peers:                300,
			Seed:                 3,
			Mechanism:            MechanismSpec{Kind: "none"},
			Inertia:              floatPtr(0),
			Coupled:              true,
			EpochRounds:          2,
			InteractionsPerRound: 10,
		})
		eng.SetDenseReference(dense)
		ctx := context.Background()
		s, err := eng.Session(ctx, WithMaxEpochs(6), WithSchedule(Schedule{}.At(0, LeaveWave{Users: leave})))
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range s.Epochs() {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.SubmitReports(reports...); err != nil {
			t.Fatal(err)
		}
		if err := read(eng); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(ctx, 3); err != nil {
			t.Fatal(err)
		}
		return histBytes(t, eng.History())
	}
	for _, r := range facadeReads {
		t.Run(r.name, func(t *testing.T) {
			if !bytes.Equal(run(t, false, r.read), run(t, true, r.read)) {
				t.Fatalf("after reading %s the sparse history diverged from the dense reference", r.name)
			}
		})
	}
}
