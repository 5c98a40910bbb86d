package trustnet

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sweepBase is a small scenario for sweep tests.
func sweepBase() Scenario {
	return Scenario{
		Peers:          24,
		Seed:           5,
		Mix:            &MixSpec{Fractions: map[string]float64{"honest": 0.7, "malicious": 0.3}, ForceHonest: []int{0, 1}},
		Mechanism:      MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}},
		Coupled:        true,
		EpochRounds:    3,
		Epochs:         3,
		RecomputeEvery: 2,
	}
}

// TestSweepDeterministicAcrossParallelism: the determinism regression of
// the sweep executor — a (disclosure × gate) grid with seed replications
// run at parallelism 1 and parallelism 8 must marshal to byte-identical
// SweepResult JSON.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	run := func(workers int) []byte {
		base := sweepBase()
		base.Workers = workers
		res, err := Experiment{
			Base:  base,
			Axes:  []Axis{Vary("disclosure", 0.2, 0.6, 1), Vary("gate", 0, 0.3)},
			Seeds: []uint64{5, 6, 7},
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// The pool size is part of the spec; the rest must not depend on it.
		res.Spec.Base.Workers = 0
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	p1 := run(1)
	p8 := run(8)
	if !bytes.Equal(p1, p8) {
		t.Fatal("SweepResult JSON differs between parallelism 1 and 8")
	}
}

// TestSweepMatrixShape: cells expand row-major over the axes, each cell
// replicates over the seeds in order, and At() indexes the matrix.
func TestSweepMatrixShape(t *testing.T) {
	res, err := Experiment{
		Base: sweepBase(),
		Axes: []Axis{
			Vary("disclosure", 0.5, 1),
			VaryMechanism(MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}}, MechanismSpec{Kind: "none"}),
		},
		Seeds: []uint64{5, 6},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	cell := res.At(1, 0)
	if d := cell.Coord.Get("disclosure"); d != 1 {
		t.Fatalf("At(1,0) disclosure = %v, want 1", d)
	}
	if lbl := cell.Coord[1].Label; lbl != "eigentrust" {
		t.Fatalf("At(1,0) mechanism label = %q", lbl)
	}
	if len(cell.Runs) != 2 {
		t.Fatalf("replications = %d, want 2", len(cell.Runs))
	}
	if cell.Runs[0].Seed != 5 || cell.Runs[1].Seed != 6 {
		t.Fatalf("seeds = %d,%d want 5,6", cell.Runs[0].Seed, cell.Runs[1].Seed)
	}
	// Aggregates fold the replications.
	wantMean := (cell.Runs[0].Trust + cell.Runs[1].Trust) / 2
	if math.Abs(cell.Trust.Mean-wantMean) > 1e-12 {
		t.Fatalf("trust mean %v, want %v", cell.Trust.Mean, wantMean)
	}
	if cell.Final == nil || len(cell.Epochs) != 3 {
		t.Fatalf("epoch aggregation missing: %d epochs, final %v", len(cell.Epochs), cell.Final)
	}
	if !reflect.DeepEqual(*cell.Final, cell.Epochs[2]) {
		t.Fatal("Final is not the last epoch aggregate")
	}
	// Equal seeds ⇒ the same cell in a separate sweep is bit-for-bit equal.
	res2, err := Experiment{
		Base:  sweepBase(),
		Axes:  []Axis{Vary("disclosure", 1)},
		Seeds: []uint64{5, 6},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Cells[0].Runs[0].History, cell.Runs[0].History) {
		t.Fatal("same scenario+seed produced different histories across sweeps")
	}
}

// TestSweepClassFractionAxis: an adversary-class parameter adjusts the mix
// with the honest class absorbing the remainder.
func TestSweepClassFractionAxis(t *testing.T) {
	sc := sweepBase()
	if err := applyParam(&sc, "malicious", 0.5); err != nil {
		t.Fatal(err)
	}
	if sc.Mix.Fractions["malicious"] != 0.5 || math.Abs(sc.Mix.Fractions["honest"]-0.5) > 1e-12 {
		t.Fatalf("fractions = %v", sc.Mix.Fractions)
	}
	if err := applyParam(&sc, "selfish", 0.6); err == nil {
		t.Fatal("fractions exceeding 1 accepted")
	}
	fresh := Scenario{}
	if err := applyParam(&fresh, "traitor", 0.2); err != nil {
		t.Fatal(err)
	}
	if fresh.Mix.Fractions["traitor"] != 0.2 || math.Abs(fresh.Mix.Fractions["honest"]-0.8) > 1e-12 {
		t.Fatalf("fresh mix = %v", fresh.Mix.Fractions)
	}
}

// TestSweepBuilderValidation: a malformed sweep fails at Run before its
// first run, never by silently shrinking the matrix.
func TestSweepBuilderValidation(t *testing.T) {
	base := sweepBase()
	noBudget := sweepBase()
	noBudget.Epochs = 0
	cases := []struct {
		name    string
		exp     Experiment
		wantErr string
	}{
		{"no values", Experiment{Base: base, Axes: []Axis{Vary("disclosure")}}, "no values"},
		{"unknown param", Experiment{Base: base, Axes: []Axis{Vary("charisma", 1)}}, "unknown sweep parameter"},
		{"tuple arity", Experiment{Base: base, Axes: []Axis{VaryTuples([]string{"disclosure", "gate"}, []float64{1})}}, "values"},
		{"zero epochs", Experiment{Base: base, Axes: []Axis{Vary("epochs", 2, 0)}}, "epoch budget"},
		{"negative epochs", Experiment{Base: base, Epochs: -1}, "epochs"},
		{"bad mechanism", Experiment{Base: base, Axes: []Axis{VaryMechanism(MechanismSpec{Kind: "oracle"})}}, "mechanism kind"},
		{"non-integer int param", Experiment{Base: base, Axes: []Axis{Vary("peers", 10, 10.5)}}, "integer"},
		{"no epoch budget", Experiment{Base: noBudget, Axes: []Axis{Vary("disclosure", 1)}}, "epoch budget"},
		{"class fractions past one across axes", Experiment{Base: base, Axes: []Axis{Vary("malicious", 0.2, 0.6), Vary("selfish", 0.3, 0.6)}}, "exceed 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := 0
			tc.exp.Observe = func(*Engine) map[string]float64 { runs++; return nil }
			_, err := tc.exp.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, tc.wantErr)
			}
			if runs != 0 {
				t.Fatalf("%d runs finished before the refusal", runs)
			}
		})
	}
}

// TestSweepRefusesParameterSetTwice: two axes, or one tuple, that set the
// same scenario field (after folding the gate/trustgate alias) would run
// every cell at the last value while labelling them apart, so Run refuses
// them; so does a mechanism axis that would overwrite an earlier
// mechanism-field axis.
func TestSweepRefusesParameterSetTwice(t *testing.T) {
	eigen := MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1}}
	for _, tc := range []struct {
		name string
		axes []Axis
	}{
		{"alias across axes", []Axis{Vary("gate", 0, 0.2), Vary("trustgate", 0.4)}},
		{"name across axes", []Axis{Vary("disclosure", 0.2), Vary("disclosure", 0.6)}},
		{"within one tuple", []Axis{VaryTuples([]string{"trustgate", "gate"}, []float64{0, 0.3})}},
		{"two mechanism axes", []Axis{VaryMechanism(eigen), VaryMechanism(MechanismSpec{Kind: "none"})}},
		{"mechanism after its field", []Axis{Vary("alpha", 0.1, 0.3), VaryMechanism(eigen)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := 0
			_, err := Experiment{
				Base:    sweepBase(),
				Axes:    tc.axes,
				Observe: func(*Engine) map[string]float64 { runs++; return nil },
			}.Run(context.Background())
			if err == nil || runs != 0 {
				t.Fatalf("err = %v after %d runs, want a refusal before the first run", err, runs)
			}
		})
	}
	// A mechanism axis before a field axis sets that field on every spec.
	if _, err := (Experiment{
		Base: sweepBase(),
		Axes: []Axis{VaryMechanism(eigen), Vary("alpha", 0.1)},
	}).Run(context.Background()); err != nil {
		t.Fatalf("mechanism axis before its field refused: %v", err)
	}
}

// TestSweepEmitters: a SweepResult's JSON re-decodes to the same cell
// structure, Observe extras included.
func TestSweepEmitters(t *testing.T) {
	res, err := Experiment{
		Base:  sweepBase(),
		Axes:  []Axis{Vary("disclosure", 0.4, 1)},
		Seeds: []uint64{5, 6},
		Observe: func(eng *Engine) map[string]float64 {
			return map[string]float64{"active": float64(eng.ActivePeers())}
		},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded SweepResult
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Cells) != 2 || decoded.Cells[0].Extra["active"].N != 2 {
		t.Fatalf("decoded sweep result mangled: %+v", decoded.Cells)
	}
	if !reflect.DeepEqual(decoded.Cells, res.Cells) {
		t.Fatal("cells changed through JSON")
	}
}

// TestExperimentSpecSerializable: an Experiment round-trips through JSON
// (all but Observe), so a study file can describe base + axes + seeds.
func TestExperimentSpecSerializable(t *testing.T) {
	exp := Experiment{
		Base: sweepBase(),
		Axes: []Axis{
			Vary("disclosure", 0, 0.5, 1),
			VaryMechanism(MechanismSpec{Kind: "eigentrust"}, MechanismSpec{Kind: "trustme"}),
		},
		Seeds:   []uint64{5, 6},
		Epochs:  4,
		Observe: func(*Engine) map[string]float64 { return nil },
	}
	data, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	var rt Experiment
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	if rt.Observe != nil {
		t.Fatal("Observe came back from JSON")
	}
	exp.Observe = nil
	if !reflect.DeepEqual(exp, rt) {
		t.Fatalf("experiment round trip diverged:\n%+v\n!=\n%+v", exp, rt)
	}
}

// TestSweepEpochsAxis: "epochs" is a sweepable parameter — each cell runs
// its own epoch budget, and a zero budget from an axis errors instead of
// silently running the base value.
func TestSweepEpochsAxis(t *testing.T) {
	res, err := Experiment{Base: sweepBase(), Axes: []Axis{Vary("epochs", 1, 4)}}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Cells[0].Runs[0].History); got != 1 {
		t.Fatalf("epochs=1 cell ran %d epochs", got)
	}
	if got := len(res.Cells[1].Runs[0].History); got != 4 {
		t.Fatalf("epochs=4 cell ran %d epochs", got)
	}
	if _, err := (Experiment{Base: sweepBase(), Axes: []Axis{Vary("epochs", 0)}}).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "epoch budget") {
		t.Fatalf("zero-epoch axis err = %v", err)
	}
}
