package trustnet

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// waveReports is the report batch shared by the ReportWave tests.
var waveReports = []Report{
	{Rater: 5, Ratee: 9, Value: 1},
	{Rater: 7, Ratee: 3, Value: 0},
	{Rater: 5, Ratee: 3, Value: 0.25},
}

// TestReportWaveMatchesDirectSubmission pins the determinism contract the
// serving layer builds on: a scheduled ReportWave and a direct
// Engine.SubmitReports call at the same epoch boundary produce bit-identical
// histories and scores.
func TestReportWaveMatchesDirectSubmission(t *testing.T) {
	mech := MechanismSpec{Pretrusted: []int{0, 1, 2}}

	scheduled, err := sessionWith(11, mech).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	sched := Schedule{}.At(2, ReportWave{Reports: waveReports})
	s, err := scheduled.Session(context.Background(), WithMaxEpochs(5), WithSchedule(sched))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.Epochs() {
		if err != nil {
			t.Fatal(err)
		}
	}

	manual, err := sessionWith(11, mech).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := manual.Session(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 5; epoch++ {
		if epoch == 2 {
			if err := manual.SubmitReports(waveReports...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ms.Next(); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := histBytes(t, manual.History()), histBytes(t, scheduled.History()); !bytes.Equal(got, want) {
		t.Fatalf("ReportWave history diverged from direct submission")
	}
	a, b := scheduled.Mechanism().ScoresView(), manual.Mechanism().ScoresView()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("score[%d]: scheduled %v != direct %v", i, a[i], b[i])
		}
	}
}

// TestReportWaveChangesScores guards against the wave silently not landing:
// a strongly positive report barrage about one peer must move its score. A
// positive barrage is the robust probe: it always adds local-trust edges
// into the ratee, whereas a zero-value barrage only changes the matrix when
// the raters happened to hold positive opinions of the ratee already (a
// trajectory-dependent accident of the scenario seed).
func TestReportWaveChangesScores(t *testing.T) {
	build := func(sched Schedule) *Engine {
		eng, err := sessionWith(3, MechanismSpec{Pretrusted: []int{0, 1, 2}}).NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		s, err := eng.Session(context.Background(), WithMaxEpochs(4), WithSchedule(sched))
		if err != nil {
			t.Fatal(err)
		}
		for _, err := range s.Epochs() {
			if err != nil {
				t.Fatal(err)
			}
		}
		return eng
	}
	var barrage []Report
	for rater := 10; rater < 30; rater++ {
		barrage = append(barrage, Report{Rater: rater, Ratee: 4, Value: 1})
	}
	plain := build(nil)
	waved := build(Schedule{}.At(1, ReportWave{Reports: barrage}))
	if plain.Mechanism().Score(4) == waved.Mechanism().Score(4) {
		t.Fatalf("report wave left peer 4's score unchanged (%v)", plain.Mechanism().Score(4))
	}
}

func TestReportWaveValidation(t *testing.T) {
	eng, err := sessionScenario(1).NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		wave ReportWave
		want string
	}{
		{"empty", ReportWave{}, "no reports"},
		{"rater-range", ReportWave{Reports: []Report{{Rater: -1, Ratee: 1, Value: 1}}}, "rater -1 out of range"},
		{"ratee-range", ReportWave{Reports: []Report{{Rater: 1, Ratee: 60, Value: 1}}}, "ratee 60 out of range"},
		{"self", ReportWave{Reports: []Report{{Rater: 1, Ratee: 1, Value: 1}}}, "self-rating"},
		{"value", ReportWave{Reports: []Report{{Rater: 1, Ratee: 2, Value: 1.5}}}, "out of [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := eng.Session(context.Background(), WithSchedule(Schedule{}.At(0, tc.wave)))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestReportWaveJSONRoundTrip(t *testing.T) {
	sched := Schedule{}.At(3, ReportWave{Reports: waveReports})
	data, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"report-wave"`) {
		t.Fatalf("encoded schedule missing report-wave kind: %s", data)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	wave, ok := back[0].Action.(ReportWave)
	if !ok {
		t.Fatalf("decoded action is %T, want ReportWave", back[0].Action)
	}
	if len(wave.Reports) != len(waveReports) || wave.Reports[2] != waveReports[2] {
		t.Fatalf("decoded wave %+v != %+v", wave.Reports, waveReports)
	}
}
