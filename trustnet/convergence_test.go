package trustnet

import (
	"context"
	"testing"
)

// TestConvergenceDiagnosticsExposed checks the facade surfaces the solver
// diagnostics end to end: per-epoch iteration deltas in EpochStats, the
// cumulative counter on the engine, and the last Convergence record.
func TestConvergenceDiagnosticsExposed(t *testing.T) {
	eng, err := sessionWith(3, MechanismSpec{Pretrusted: []int{0, 1, 2}}).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.ComputeIterations() != 0 {
		t.Fatal("fresh engine reports compute iterations")
	}
	if _, ok := eng.Convergence(); ok {
		t.Fatal("fresh engine reports convergence diagnostics")
	}
	hist, err := eng.Run(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, e := range hist {
		if e.MechIterations <= 0 {
			t.Fatalf("epoch %d: MechIterations = %d, want > 0", i, e.MechIterations)
		}
		sum += int64(e.MechIterations)
	}
	if got := eng.ComputeIterations(); got != sum {
		t.Fatalf("cumulative iterations %d != sum of epoch deltas %d", got, sum)
	}
	conv, ok := eng.Convergence()
	if !ok || conv.Iterations <= 0 {
		t.Fatalf("Convergence() = %+v ok=%v after run", conv, ok)
	}
	if !conv.Warm {
		t.Fatal("default engine run did not warm-start its final compute")
	}
	last := hist[len(hist)-1]
	if last.MechResidual != conv.Residual {
		t.Fatalf("epoch residual %v != mechanism's last residual %v", last.MechResidual, conv.Residual)
	}
}

// TestConvergenceNotReportedForNonIterative checks mechanisms without an
// iterative solver stay silent rather than faking diagnostics.
func TestConvergenceNotReportedForNonIterative(t *testing.T) {
	eng, err := sessionWith(5, MechanismSpec{Kind: "trustme"}).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Convergence(); ok {
		t.Fatal("trustme reported convergence diagnostics")
	}
	hist := eng.History()
	for i, e := range hist {
		if e.MechResidual != 0 {
			t.Fatalf("epoch %d: non-iterative mechanism reported residual %v", i, e.MechResidual)
		}
		// TrustMe recomputes in single rounds; the delta counts those.
		if e.MechIterations < 0 {
			t.Fatalf("epoch %d: negative iteration delta", i)
		}
	}
}

// TestComputeIterationsSurviveSnapshot pins the cumulative counter into the
// snapshot contract: a restored engine continues the count, not restarts it.
func TestComputeIterationsSurviveSnapshot(t *testing.T) {
	mech := MechanismSpec{Pretrusted: []int{0, 1, 2}}
	eng, err := sessionWith(7, mech).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	mid := eng.ComputeIterations()
	if mid <= 0 {
		t.Fatal("no iterations accumulated before snapshot")
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := sessionWith(7, mech).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.ComputeIterations() != mid {
		t.Fatalf("restored counter %d != snapshotted %d", restored.ComputeIterations(), mid)
	}
	if _, err := eng.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if eng.ComputeIterations() != restored.ComputeIterations() {
		t.Fatalf("counters diverged after restore-then-run: %d != %d",
			eng.ComputeIterations(), restored.ComputeIterations())
	}
}
