// Filesharing: the EigenTrust motivating workload — a P2P file-sharing
// community with 30% malicious peers serving corrupted files. The example
// contrasts the no-reputation baseline with EigenTrust and shows the privacy
// bill the reputation mechanism runs up in the disclosure ledger.
package main

import (
	"fmt"
	"log"

	"repro/trustnet"
)

const (
	peers  = 150
	rounds = 50
)

func runScenario(mech trustnet.MechanismSpec) (*trustnet.Engine, error) {
	eng, err := trustnet.Scenario{
		Peers: peers,
		Seed:  7,
		Mix: &trustnet.MixSpec{
			Fractions:   map[string]float64{"honest": 0.7, "malicious": 0.3},
			ForceHonest: []int{0, 1, 2},
		},
		Mechanism: mech,
		// Spread load as EigenTrust recommends.
		Selection:      "proportional",
		RecomputeEvery: 2,
	}.NewEngine()
	if err != nil {
		return nil, err
	}
	eng.RunRounds(rounds)
	return eng, nil
}

func main() {
	withRep, err := runScenario(trustnet.MechanismSpec{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}})
	if err != nil {
		log.Fatal(err)
	}
	without, err := runScenario(trustnet.MechanismSpec{Kind: "none"})
	if err != nil {
		log.Fatal(err)
	}

	sRep := withRep.Summary()
	sNone := without.Summary()
	fmt.Println("== corrupted-download rate (last quarter of the run) ==")
	fmt.Printf("no reputation: %.1f%%\n", 100*sNone.RecentBadRate)
	fmt.Printf("eigentrust:    %.1f%%  (%.0fx fewer)\n",
		100*sRep.RecentBadRate, safeRatio(sNone.RecentBadRate, sRep.RecentBadRate))
	fmt.Printf("rank accuracy of scores vs true behaviour (tau): %.3f\n\n", sRep.Tau)

	// The privacy bill: what the reputation layer learned about peers.
	g := withRep.Assess().GlobalFacets()
	fmt.Println("== the privacy cost of that protection ==")
	fmt.Printf("feedback reports disclosed to the mechanism: %d\n", withRep.SharedReports())
	fmt.Printf("ledgered disclosure events: %d\n", withRep.Ledger().Len())
	fmt.Printf("mean privacy facet: %.3f (1.0 = nothing shared)\n", g.Privacy)

	trust, err := trustnet.Combine(g, trustnet.DefaultWeights())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncombined trust towards the system: %.3f\n", trust)
	fmt.Println("(rerun with the tradeoff example to see where this setting sits on the frontier)")
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
