// Tradeoff: sweep the quantity of shared information and print the
// Figure-2-right curves — privacy satisfaction falls, reputation power
// rises, and the same global satisfaction is reachable at different
// settings. Then ask the optimizer for the best setting under two different
// applicative contexts.
//
// The disclosure sweep is a declarative Experiment over the registered
// "tradeoff" Scenario — no hand-rolled run loop; the same spec is runnable
// as `trustsim -scenario tradeoff`.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/trustnet"
)

func main() {
	base := trustnet.MustScenario("tradeoff")

	disclosures := make([]float64, 0, 9)
	for i := 0; i <= 8; i++ {
		disclosures = append(disclosures, float64(i)/8)
	}
	res, err := trustnet.Experiment{
		Base: base,
		Axes: []trustnet.Axis{trustnet.Vary("disclosure", disclosures...)},
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	var priv, rep, sat trustnet.Series
	priv.Name, rep.Name, sat.Name = "privacy", "reputation-power", "global-satisfaction"
	for _, cell := range res.Cells {
		d := cell.Coord.Get("disclosure")
		priv.Add(d, cell.Privacy.Mean)
		rep.Add(d, cell.Reputation.Mean)
		sat.Add(d, cell.Satisfaction.Mean)
	}
	trustnet.RenderSeries(os.Stdout, "sharing more helps reputation, costs privacy (Fig. 2 right)",
		"disclosure", &priv, &rep, &sat)

	// The optimizer finds different best settings for different contexts;
	// under the hood each Optimize is a grid sweep plus hill-climb batches
	// over the same scenario, each point one epoch of its 30 rounds.
	explore := base
	explore.Epochs = 0
	explore.Privacy = nil // the explorer owns the (disclosure, gate) axes
	for _, ctx := range []trustnet.AppContext{trustnet.PrivacyCritical, trustnet.PerformanceCritical} {
		w := trustnet.ContextWeights(ctx)
		explore.Weights = &w
		cfg := trustnet.ExploreConfig{Scenario: explore, GridSize: 4}
		pt, err := trustnet.Optimize(context.Background(), cfg, trustnet.Constraints{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s context: best setting disclosure=%.2f gate=%.2f (trust %.3f, S=%.2f R=%.2f P=%.2f)\n",
			ctx, pt.Setting.Disclosure, pt.Setting.TrustGate, pt.Trust,
			pt.Global.Satisfaction, pt.Global.Reputation, pt.Global.Privacy)
	}
}
