package workload

import (
	"testing"

	"repro/internal/adversary"
)

func collMix(frac float64) adversary.Mix {
	return adversary.Mix{
		Fractions: map[adversary.Class]float64{
			adversary.Honest:   1 - frac,
			adversary.Colluder: frac,
		},
		ForceHonest: []int{0, 1},
	}
}

func TestColludersBallotStuff(t *testing.T) {
	e, err := NewEngine(Config{Seed: 41, NumPeers: 30, Mix: collMix(0.3), RecomputeEvery: 2}, newEigen(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if e.FakeReports == 0 {
		t.Fatal("no ballot-stuffed reports")
	}
	// Roughly one fake report per colluder per round (minus self-draws).
	if e.FakeReports > 10*9 {
		t.Fatalf("too many fake reports: %d", e.FakeReports)
	}
}

func TestNoBallotStuffingWithoutColluders(t *testing.T) {
	e, err := NewEngine(Config{Seed: 43, NumPeers: 20, Mix: mixMalicious(0.3)}, newEigen(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	if e.FakeReports != 0 {
		t.Fatalf("fake reports without colluders: %d", e.FakeReports)
	}
}

func TestCollusionDiffersFromPlainMalice(t *testing.T) {
	// The collective's ballot stuffing must change the score vector
	// relative to an identically-seeded plain-malicious population.
	run := func(mix adversary.Mix) []float64 {
		e, err := NewEngine(Config{Seed: 45, NumPeers: 30, Mix: mix, RecomputeEvery: 2}, newEigen(t, 30))
		if err != nil {
			t.Fatal(err)
		}
		e.Run(20)
		e.Mechanism().Compute()
		return e.Mechanism().ScoresView()
	}
	mal := run(adversary.Mix{
		Fractions:   map[adversary.Class]float64{adversary.Honest: 0.7, adversary.Malicious: 0.3},
		ForceHonest: []int{0, 1},
	})
	coll := run(collMix(0.3))
	same := true
	for i := range mal {
		if mal[i] != coll[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("collusion produced identical scores to plain malice")
	}
}

func TestPretrustDampsCollusionInWorkload(t *testing.T) {
	// With pre-trusted honest founders, the clique must not out-rank the
	// honest peers that actually serve well.
	e, err := NewEngine(Config{Seed: 47, NumPeers: 40, Mix: collMix(0.3), RecomputeEvery: 2}, newEigen(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	e.Run(40)
	e.Mechanism().Compute()
	scores := e.Mechanism().ScoresView()
	gt, served := groundTruth(e)
	bestColluder, bestHonest := 0.0, 0.0
	for id, c := range e.Classes() {
		if !served[id] {
			continue
		}
		switch {
		case c == adversary.Colluder && scores[id] > bestColluder:
			bestColluder = scores[id]
		case c == adversary.Honest && gt[id] >= 0.5 && scores[id] > bestHonest:
			bestHonest = scores[id]
		}
	}
	if bestColluder >= bestHonest {
		t.Fatalf("clique out-ranked honest peers: %v >= %v", bestColluder, bestHonest)
	}
}
