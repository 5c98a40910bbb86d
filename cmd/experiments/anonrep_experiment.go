package main

import (
	"fmt"
	"io"

	"repro/trustnet"
)

// runE11 measures the reputation/anonymity trade-off of the anonymous
// reputation schemes the paper cites in §2.2 ([2], [4]): rotating
// pseudonyms with coarse, noisy reputation transfer. Each of the five
// (granularity, noise) protection settings runs its own engine, advancing
// the pseudonym epoch between round chunks, and reports the linkability
// advantage. Sweeping the transfer noise shows the paper's
// "interesting but challenging trade-off between reputation and privacy
// purposes": linkability (privacy loss) and rank accuracy (reputation
// power) fall together.
func runE11(w io.Writer, p params) error {
	n := p.peers(150)
	chunks := 6
	roundsPerChunk := 8
	if p.quick {
		chunks = 4
		roundsPerChunk = 5
	}
	settings := [][]float64{
		{0.001, 0.00},
		{0.05, 0.02},
		{0.10, 0.05},
		{0.25, 0.10},
		{0.50, 0.20},
	}
	base := scenario(p, 0.3, n)
	base.Mechanism = trustnet.MechanismSpec{Kind: "anonrep"}
	tab := trustnet.NewTable(
		fmt.Sprintf("E11: pseudonymous reputation — anonymity vs accuracy (%d peers, 30%% malicious)", n),
		"granularity", "noise", "linkability", "tau", "bad-rate")
	var link, tau trustnet.Series
	link.Name, tau.Name = "linkability", "tau"
	for _, setting := range settings {
		gran, noise := setting[0], setting[1]
		sc := base
		sc.Mechanism.Granularity, sc.Mechanism.Noise = gran, noise
		eng, err := sc.NewEngine()
		if err != nil {
			return err
		}
		mech := eng.Mechanism().(*trustnet.AnonRepMechanism)
		var advSum float64
		for c := 0; c < chunks; c++ {
			eng.RunRounds(roundsPerChunk)
			mech.NextEpoch()
			advSum += mech.LinkabilityAdvantage()
		}
		// Close the measurement period: the rank accuracy reads the scores
		// of the last recompute.
		mech.Compute()
		adv := advSum / float64(chunks)
		sum := eng.Summary()
		tab.AddRow(gran, noise, adv, sum.Tau, sum.RecentBadRate)
		link.Add(noise, adv)
		tau.Add(noise, sum.Tau)
	}
	tab.Render(w)
	fmt.Fprintf(w, "linkability falls with protection: %v; accuracy falls with it: %v — the cited reputation/privacy trade-off\n",
		link.MonotoneDown(0.1), tau.MonotoneDown(0.15))
	fmt.Fprintf(w, "(random-guess linkability baseline: %.4f)\n", 1/float64(n))
	return nil
}
