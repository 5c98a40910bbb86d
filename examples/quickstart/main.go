// Quickstart: build a small decentralized social network, run interactions
// under a reputation mechanism, and read out the three facets — satisfaction,
// reputation power, privacy — and the resulting trust towards the system.
//
// The whole setup is the registered "quickstart" Scenario — a declarative,
// JSON-serializable spec — so the same run is also available as
// `trustsim -scenario quickstart`, and sweeping it only takes
// trustnet.Experiment{Base: sc, Axes: []trustnet.Axis{trustnet.Vary(...)}}.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"repro/trustnet"
)

func main() {
	// One registered spec wires the whole scenario: a population that is
	// 70% honest and 30% malicious on a Barabási–Albert friendship graph,
	// EigenTrust with three pre-trusted founders, peers sharing 80% of
	// their feedback, and the paper's §3 feedback loops enabled.
	sc := trustnet.MustScenario("quickstart")

	// Show the spec itself: scenarios are data, and this JSON round-trips
	// back into an identical run.
	spec, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running scenario %q:\n%s\n\n", sc.Name, spec)

	// Run the coupled dynamics: facets are measured each epoch, trust is
	// updated, and trust feeds back into disclosure and honesty.
	eng, history, err := sc.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("epoch  trust   satisfaction  reputation  privacy")
	for _, e := range history {
		fmt.Printf("%5d  %.4f  %.4f        %.4f      %.4f\n",
			e.Epoch, e.Trust, e.Satisfaction, e.Reputation, e.Privacy)
	}

	fmt.Printf("\nglobal trust towards the system: %.4f\n", eng.GlobalTrust())
	fmt.Printf("system globally trusted (median user >= 0.5): %v\n", eng.SystemTrusted(0.5, 0.5))

	// The same facets under a different applicative context weigh
	// differently (§4).
	g := eng.Assess().GlobalFacets()
	for _, ctx := range []trustnet.AppContext{trustnet.Balanced, trustnet.PrivacyCritical, trustnet.PerformanceCritical} {
		t, err := trustnet.Combine(g, trustnet.ContextWeights(ctx))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trust under %-20s context: %.4f\n", ctx, t)
	}

	// Replications are one value over the same spec: five seeds, and the
	// cross-seed mean ± stddev of the final epoch's trust.
	res, err := trustnet.Experiment{Base: sc, Seeds: []uint64{42, 43, 44, 45, 46}}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	final := res.Cells[0].Final
	fmt.Printf("\nacross 5 seeds: final trust %.4f ± %.4f\n", final.Trust.Mean, final.Trust.Std)
}
