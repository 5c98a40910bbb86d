package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/trustnet"
)

func (p params) peers(full int) int {
	if p.quick {
		return full / 2
	}
	return full
}

func (p params) epochs(full int) int {
	if p.quick {
		e := full / 2
		if e < 3 {
			e = 3
		}
		return e
	}
	return full
}

// scenario is the shared base Scenario of the experiments: the standard
// population on the standard mechanism at the standard recompute cadence.
// Every experiment expands it through a Sweep instead of hand-rolling run
// loops.
func scenario(p params, malicious float64, n int) trustnet.Scenario {
	shards := p.shards
	if shards < 1 {
		shards = 1
	}
	return trustnet.Scenario{
		Peers: n,
		Seed:  p.seed,
		// The pre-trusted set {0,1,2} is known-good (network founders),
		// matching EigenTrust's deployment assumption.
		Mix:            trustnet.MixOf(map[string]float64{"malicious": malicious}, 0, 1, 2),
		Mechanism:      trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		RecomputeEvery: 2,
		Shards:         shards,
	}
}

// coupledScenario is the base for the §3 coupled-dynamics experiments.
func coupledScenario(p params, malicious float64, n int) trustnet.Scenario {
	sc := scenario(p, malicious, n)
	sc.Privacy = &trustnet.PrivacyPolicy{Disclosure: 0.8}
	sc.Coupled = true
	sc.EpochRounds = 8
	return sc
}

// runE1 reproduces Figure 1: with the §3 couplings enabled, trust,
// satisfaction and the coupling variables co-evolve toward a fixed point;
// with couplings disabled they stay pinned at their bases. The on/off
// contrast is a one-axis sweep.
func runE1(w io.Writer, p params) error {
	n := p.peers(200)
	epochs := p.epochs(12)
	res, err := trustnet.Experiment{
		Base:   coupledScenario(p, 0.3, n),
		Axes:   []trustnet.Axis{trustnet.Vary("coupling", 1, 0)},
		Epochs: epochs,
	}.Run(context.Background())
	if err != nil {
		return err
	}
	hc := res.At(0).Runs[0].History
	hd := res.At(1).Runs[0].History
	tab := trustnet.NewTable("E1: coupled vs decoupled dynamics (200 peers, 30% malicious)",
		"epoch", "trust(c)", "sat(c)", "rep(c)", "priv(c)", "disclose(c)", "honesty(c)",
		"trust(d)", "disclose(d)")
	for i := range hc {
		tab.AddRow(i, hc[i].Trust, hc[i].Satisfaction, hc[i].Reputation, hc[i].Privacy,
			hc[i].Disclosure, hc[i].Honesty, hd[i].Trust, hd[i].Disclosure)
	}
	tab.Render(w)
	lastC, lastD := hc[len(hc)-1], hd[len(hd)-1]
	fmt.Fprintf(w, "coupling moved disclosure %.3f -> %.3f and honesty -> %.3f; decoupled stayed at %.3f\n",
		hc[0].Disclosure, lastC.Disclosure, lastC.Honesty, lastD.Disclosure)
	return nil
}

// runE2 verifies §3's first claim with the noise-free iterated map: mutual
// reinforcement converges monotonically to a single fixed point from any
// initial trust level. (Closed-form claim check — no engine runs, so no
// sweep.)
func runE2(w io.Writer, p params) error {
	cfg := trustnet.MapConfig{Reputation: 0.8, Privacy: 0.8}
	tab := trustnet.NewTable("E2: trust<->satisfaction iterated map (R=0.8, P=0.8)",
		"t0", "t@5", "t@15", "t@40", "monotone")
	var fixed []float64
	for i := 0; i <= 10; i++ {
		t0 := float64(i) / 10
		traj, err := trustnet.RunIteratedMap(t0, 40, cfg)
		if err != nil {
			return err
		}
		mono := "yes"
		increasing := traj[len(traj)-1] >= traj[0]
		for k := 2; k < len(traj); k++ {
			if increasing && traj[k] < traj[k-1]-1e-9 || !increasing && traj[k] > traj[k-1]+1e-9 {
				mono = "no"
			}
		}
		fixed = append(fixed, traj[len(traj)-1])
		tab.AddRow(t0, traj[5], traj[15], traj[40], mono)
	}
	tab.Render(w)
	spread := trustnet.Quantile(fixed, 1) - trustnet.Quantile(fixed, 0)
	fmt.Fprintf(w, "fixed-point spread over 11 starting points: %.6f (single attractor)\n", spread)
	return nil
}

// runE3 sweeps the reputation mechanism's power and reads off the §3 claims
// 2+3: more power ⇒ more trust ⇒ more satisfaction and more honest
// contribution. (Closed-form claim check on the iterated map.)
func runE3(w io.Writer, p params) error {
	tab := trustnet.NewTable("E3: forced reputation power -> fixed-point trust, satisfaction, honesty",
		"power R", "trust*", "satisfaction*", "honesty*")
	h0 := 0.3
	var trusts []float64
	for i := 0; i <= 10; i++ {
		r := float64(i) / 10
		traj, err := trustnet.RunIteratedMap(0.5, 80, trustnet.MapConfig{Reputation: r, Privacy: 0.8})
		if err != nil {
			return err
		}
		t := traj[len(traj)-1]
		s := 0.1 + 0.8*t
		if s > 1 {
			s = 1
		}
		honesty := h0 + (1-h0)*t
		trusts = append(trusts, t)
		tab.AddRow(r, t, s, honesty)
	}
	tab.Render(w)
	mono := true
	for i := 1; i < len(trusts); i++ {
		if trusts[i] < trusts[i-1]-1e-9 {
			mono = false
		}
	}
	fmt.Fprintf(w, "trust monotone in reputation power: %v\n", mono)
	return nil
}

// runE4 reproduces §3's fourth claim: with 70% of the population
// untrustworthy, an efficient mechanism yields LOW system trust while
// contribution (disclosure) continues. The two populations are one
// malicious-fraction axis.
func runE4(w io.Writer, p params) error {
	n := p.peers(200)
	epochs := p.epochs(12)
	labels := map[float64]string{
		0.1: "10% malicious (healthy)",
		0.7: "70% malicious (majority untrustworthy)",
	}
	res, err := trustnet.Experiment{
		Base:   coupledScenario(p, 0.3, n),
		Axes:   []trustnet.Axis{trustnet.Vary("malicious", 0.1, 0.7)},
		Epochs: epochs,
	}.Run(context.Background())
	if err != nil {
		return err
	}
	tab := trustnet.NewTable("E4: system trust under honest vs untrustworthy majority",
		"population", "trust", "satisfaction", "rep facet", "community", "disclosure", "bad-rate")
	var healthyTrust, hostileTrust, hostileDisc float64
	for _, cell := range res.Cells {
		malicious := cell.Coord.Get("malicious")
		hist := cell.Runs[0].History
		last := hist[len(hist)-1]
		tab.AddRow(labels[malicious], last.Trust, last.Satisfaction, last.Reputation, last.Community, last.Disclosure, last.BadRate)
		if malicious > 0.5 {
			hostileTrust, hostileDisc = last.Trust, last.Disclosure
		} else {
			healthyTrust = last.Trust
		}
	}
	tab.Render(w)
	fmt.Fprintf(w, "hostile-majority trust %.3f < healthy trust %.3f: %v; contribution continues (disclosure %.3f > 0)\n",
		hostileTrust, healthyTrust, hostileTrust < healthyTrust, hostileDisc)
	return nil
}

// runE5 reproduces Figure 2 (right): sweeping the quantity of shared
// information δ, privacy satisfaction falls while reputation power rises
// (the antinomic impact), and distinct settings reach the same global
// satisfaction. The disclosure axis × seed replications are one sweep; the
// curves read off each cell's cross-seed means.
func runE5(w io.Writer, p params) error {
	n := p.peers(200)
	rounds := 40
	if p.quick {
		rounds = 25
	}
	seeds := []uint64{p.seed, p.seed + 101, p.seed + 202}
	if p.quick {
		seeds = seeds[:2]
	}
	base := scenario(p, 0.3, n)
	base.EpochRounds = rounds
	base.Epochs = 1
	disclosures := make([]float64, 0, 11)
	for i := 0; i <= 10; i++ {
		disclosures = append(disclosures, float64(i)/10)
	}
	res, err := trustnet.Experiment{
		Base:  base,
		Axes:  []trustnet.Axis{trustnet.Vary("disclosure", disclosures...)},
		Seeds: seeds,
	}.Run(context.Background())
	if err != nil {
		return err
	}
	var priv, rep, sat, trust trustnet.Series
	priv.Name, rep.Name, sat.Name, trust.Name = "privacy", "rep-power", "global-sat", "trust"
	var sats []float64
	for _, cell := range res.Cells {
		d := cell.Coord.Get("disclosure")
		priv.Add(d, cell.Privacy.Mean)
		rep.Add(d, cell.Reputation.Mean)
		sat.Add(d, cell.Satisfaction.Mean)
		trust.Add(d, cell.Trust.Mean)
		sats = append(sats, cell.Satisfaction.Mean)
	}
	trustnet.RenderSeries(w, "E5: disclosure sweep (Fig.2 right)", "disclosure", &priv, &rep, &sat, &trust)
	fmt.Fprintf(w, "privacy monotone down: %v; reputation power monotone up: %v\n",
		priv.MonotoneDown(0.02), rep.MonotoneUp(0.08))
	// Iso-satisfaction: find two settings with (near-)equal global
	// satisfaction — "the same global satisfaction can be reached by using
	// different settings".
	bestI, bestJ, bestGap := -1, -1, math.Inf(1)
	for i := 0; i < len(sats); i++ {
		for j := i + 2; j < len(sats); j++ {
			if gap := math.Abs(sats[i] - sats[j]); gap < bestGap {
				bestI, bestJ, bestGap = i, j, gap
			}
		}
	}
	fmt.Fprintf(w, "iso-satisfaction pair: disclosure %.1f and %.1f differ in S_glob by only %.4f\n",
		float64(bestI)/10, float64(bestJ)/10, bestGap)
	return nil
}
