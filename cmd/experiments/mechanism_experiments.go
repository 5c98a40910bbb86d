package main

import (
	"context"
	"fmt"
	"io"

	"repro/trustnet"
)

// eigenSpec is the standard EigenTrust spec with the pre-trusted founders.
func eigenSpec() trustnet.MechanismSpec {
	return trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}}
}

// runE6 reproduces Figure 2 (left): the grid over the two settable axes is
// classified into the intersection region "Area A" where all three facet
// satisfactions hold at once; the best tradeoff lives inside it. The grid
// is a sweep under the hood (Explore).
func runE6(w io.Writer, p params) error {
	n := p.peers(120)
	grid := 5
	rounds := 30
	if p.quick {
		grid, rounds = 4, 20
	}
	sc := scenario(p, 0.3, n)
	sc.EpochRounds = rounds
	cfg := trustnet.ExploreConfig{
		Scenario:   sc,
		GridSize:   grid,
		Thresholds: trustnet.Facets{Satisfaction: 0.6, Reputation: 0.6, Privacy: 0.8},
	}
	res, err := trustnet.Explore(context.Background(), cfg)
	if err != nil {
		return err
	}
	tab := trustnet.NewTable("E6: (disclosure x trust-gate) grid — Area A membership",
		"disclosure", "gate", "S", "R", "P", "trust", "in Area A")
	thr := cfg.Thresholds
	for _, pt := range res.Points {
		in := pt.Global.Satisfaction >= thr.Satisfaction &&
			pt.Global.Reputation >= thr.Reputation &&
			pt.Global.Privacy >= thr.Privacy
		tab.AddRow(pt.Setting.Disclosure, pt.Setting.TrustGate,
			pt.Global.Satisfaction, pt.Global.Reputation, pt.Global.Privacy, pt.Trust, in)
	}
	tab.Render(w)
	fmt.Fprintf(w, "Area A: %d/%d settings (%.0f%%); best overall trust %.3f at (δ=%.2f, σ=%.2f); best inside A %.3f at (δ=%.2f, σ=%.2f)\n",
		len(res.AreaA), len(res.Points), res.AreaFraction*100,
		res.Best.Trust, res.Best.Setting.Disclosure, res.Best.Setting.TrustGate,
		res.BestInAreaA.Trust, res.BestInAreaA.Setting.Disclosure, res.BestInAreaA.Setting.TrustGate)
	return nil
}

// runE7 compares the paper's cited mechanism space — EigenTrust, TrustMe,
// PowerTrust — plus the no-reputation baseline across malicious fractions:
// one (malicious × mechanism) sweep. The bad-service table, the rank
// accuracy / cost table at 40% malicious, and the PowerTrust look-ahead
// ablation all read off sweep results.
func runE7(w io.Writer, p params) error {
	n := p.peers(200)
	rounds := 60
	if p.quick {
		rounds = 30
	}
	fractions := []float64{0, 0.2, 0.4, 0.6, 0.8}
	mechs := []trustnet.MechanismSpec{
		{Kind: "none"},
		eigenSpec(),
		{Kind: "powertrust"},
		{Kind: "trustme"},
	}
	base := scenario(p, 0.3, n)
	base.EpochRounds = rounds
	base.Epochs = 1
	res, err := trustnet.Experiment{
		Base: base,
		Axes: []trustnet.Axis{trustnet.Vary("malicious", fractions...), trustnet.VaryMechanism(mechs...)},
		Observe: func(eng *trustnet.Engine) map[string]float64 {
			out := map[string]float64{}
			// Read the message counter before the convergence probe: the
			// probe submits a report of its own, which must not count
			// toward the run's messaging overhead.
			if tm, ok := eng.Mechanism().(*trustnet.TrustMeMechanism); ok {
				out["messages"] = float64(tm.Messages)
			}
			out["converge"] = float64(convergenceRounds(eng.Mechanism(), eng.Peers()))
			return out
		},
	}.Run(context.Background())
	if err != nil {
		return err
	}
	tab := trustnet.NewTable(
		fmt.Sprintf("E7: bad-service rate by mechanism and malicious fraction (%d peers, %d rounds)", n, rounds),
		"malicious", "none", "eigentrust", "powertrust", "trustme")
	taus := trustnet.NewTable("E7b: rank accuracy (tau) and cost at 40% malicious",
		"mechanism", "tau", "converge-rounds", "extra-messages")
	for fi, frac := range fractions {
		row := []any{frac}
		for mi := range mechs {
			cell := res.At(fi, mi)
			run := cell.Runs[0]
			row = append(row, run.Summary.RecentBadRate)
			if frac == 0.4 {
				var msgs int64
				if v, ok := run.Extra["messages"]; ok {
					msgs = int64(v)
				}
				taus.AddRow(cell.Coord[1].Label, run.Summary.Tau, int(run.Extra["converge"]), msgs)
			}
		}
		tab.AddRow(row...)
	}
	tab.Render(w)
	taus.Render(w)

	// Convergence ablation: PowerTrust's look-ahead random walk vs the
	// plain walk on the same feedback, each counting its from-dirty
	// recompute.
	abl := scenario(p, 0.3, 50)
	abl.RecomputeEvery = 1000 // never recompute during the run: Compute() below starts dirty
	var converge [2]int
	var nodes []int
	var elite float64
	for i, kind := range []string{"powertrust", "powertrust-plain"} {
		abl.Mechanism = trustnet.MechanismSpec{Kind: kind, Epsilon: 1e-10}
		eng, err := abl.NewEngine()
		if err != nil {
			return err
		}
		eng.RunRounds(20)
		converge[i] = eng.Mechanism().Compute()
		// Observe the look-ahead walk's elected elite through the
		// read-only views.
		if pt, ok := eng.Mechanism().(*trustnet.PowerTrustMechanism); ok && i == 0 {
			nodes = pt.PowerNodesView()
			scores := pt.ScoresView()
			for _, id := range nodes {
				elite += scores[id]
			}
			if len(nodes) > 0 {
				elite /= float64(len(nodes))
			}
		}
	}
	fmt.Fprintf(w, "PowerTrust LRW convergence: look-ahead %d rounds vs plain %d rounds (%d power nodes, mean elite score %.2f)\n",
		converge[0], converge[1], len(nodes), elite)
	return nil
}

// convergenceRounds measures a full from-dirty recompute by submitting one
// fresh report and recomputing.
func convergenceRounds(m trustnet.Mechanism, n int) int {
	_ = m.Submit(trustnet.Report{TxID: ^uint64(0), Rater: n - 1, Ratee: n - 2, Value: 0.9})
	return m.Compute()
}

// runE8 probes the adversary taxonomy of §2.2: each class at 30% of the
// population, under EigenTrust and PowerTrust — a one-hot class-fraction
// axis × a mechanism axis — plus the whitewash-reset contrast between
// neutral-default (TrustMe) and zero-default (EigenTrust) scores.
func runE8(w io.Writer, p params) error {
	n := p.peers(150)
	rounds := 50
	if p.quick {
		rounds = 25
	}
	classes := []string{"malicious", "traitor", "slanderer", "colluder"}
	oneHot := make([][]float64, len(classes))
	for i := range classes {
		tuple := make([]float64, len(classes))
		tuple[i] = 0.3
		oneHot[i] = tuple
	}
	base := scenario(p, 0, n)
	base.EpochRounds = rounds
	base.Epochs = 1
	res, err := trustnet.Experiment{
		Base: base,
		Axes: []trustnet.Axis{
			trustnet.VaryTuples(classes, oneHot...),
			trustnet.VaryMechanism(eigenSpec(), trustnet.MechanismSpec{Kind: "powertrust"}),
		},
	}.Run(context.Background())
	if err != nil {
		return err
	}
	tab := trustnet.NewTable("E8: damage by adversary class at 30% (higher tau / lower bad-rate = more robust)",
		"class", "eigentrust tau", "eigentrust bad", "powertrust tau", "powertrust bad")
	for ci, cls := range classes {
		row := []any{cls}
		for mi := 0; mi < 2; mi++ {
			s := res.At(ci, mi).Runs[0].Summary
			row = append(row, s.Tau, s.RecentBadRate)
		}
		tab.AddRow(row...)
	}
	tab.Render(w)

	// Whitewash contrast: a badly-rated peer resets its identity. This is
	// a hand-fed report script on standalone mechanisms, not a run matrix.
	et, err := trustnet.NewEigenTrust(trustnet.EigenTrustConfig{N: 20, Pretrusted: []int{1, 2}})
	if err != nil {
		return err
	}
	tm, err := trustnet.NewTrustMe(trustnet.TrustMeConfig{N: 20})
	if err != nil {
		return err
	}
	tx := uint64(1)
	for rater := 1; rater < 20; rater++ {
		for k := 0; k < 3; k++ {
			r := trustnet.Report{TxID: tx, Rater: rater, Ratee: 0, Value: 0.05}
			if err := et.Submit(r); err != nil {
				return err
			}
			if err := tm.Submit(r); err != nil {
				return err
			}
			tx++
			// Some good peers also rate each other so peer 0 is not the
			// only scored peer.
			other := trustnet.Report{TxID: tx, Rater: rater, Ratee: (rater % 19) + 1, Value: 0.9}
			if other.Rater != other.Ratee {
				_ = et.Submit(other)
				_ = tm.Submit(other)
			}
			tx++
		}
	}
	et.Compute()
	tm.Compute()
	etBefore, tmBefore := et.Score(0), tm.Score(0)
	et.Whitewash(0)
	tm.Whitewash(0)
	et.Compute()
	tm.Compute()
	wt := trustnet.NewTable("E8b: whitewash laundering (peer 0 resets identity after bad ratings)",
		"mechanism", "score before", "score after reset", "reset gain", "laundered?")
	wt.AddRow("eigentrust (zero-default)", etBefore, et.Score(0), et.Score(0)-etBefore, et.Score(0)-etBefore > 0.1)
	wt.AddRow("trustme (neutral-default)", tmBefore, tm.Score(0), tm.Score(0)-tmBefore, tm.Score(0)-tmBefore > 0.1)
	wt.Render(w)
	fmt.Fprintf(w, "whitewashing launders TrustMe's neutral default back to %.2f while EigenTrust keeps the newcomer at %.2f\n",
		tm.Score(0), et.Score(0))
	return nil
}
