// Churnstorm: a trust scenario under heavy membership churn with
// whitewashing adversaries, scripted as data. The storm — leave waves,
// rejoin waves, a whitewash wave — is a declarative intervention Schedule
// applied by a streaming Session at epoch boundaries, not a hand-written
// driving loop. Running the same schedule under EigenTrust and TrustMe
// shows why identity cost matters: whitewashers launder TrustMe's
// neutral-default scores but gain nothing against EigenTrust's
// zero-default (§2.2's identity-cost argument).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/trustnet"
)

const (
	peers  = 100
	epochs = 12
)

func main() {
	fmt.Printf("churn storm over %d peers, %d epochs: honest-leave@3, adversary-leave@5, whitewash@7, rejoin@9\n\n",
		peers, epochs)

	for _, mech := range []trustnet.MechanismSpec{
		{Kind: "eigentrust", Pretrusted: []int{0, 1, 2}},
		{Kind: "trustme"},
	} {
		scores, adversaries := runStorm(mech)
		fmt.Printf("%-11s mean adversary score after whitewash wave: %.3f\n\n", mech.Kind, mean(scores, adversaries))
	}

	fmt.Println("zero-default scores make whitewashing pointless; neutral defaults reward it —")
	fmt.Println("the identity-cost argument of the paper's adversary discussion (§2.2).")
}

// runStorm drives one mechanism through the scripted churn storm on a
// streaming session, printing the live trajectory. It returns the final
// mechanism scores and the adversary cohort (identical across mechanisms:
// class assignment depends only on the shared seed).
func runStorm(mech trustnet.MechanismSpec) (scores []float64, adversaries []int) {
	eng, err := trustnet.Scenario{
		Peers: peers,
		Seed:  42,
		Mix: &trustnet.MixSpec{
			Fractions:   map[string]float64{"honest": 0.8, "malicious": 0.2},
			ForceHonest: []int{0, 1, 2},
		},
		Mechanism:      mech,
		Coupled:        true,
		EpochRounds:    6,
		RecomputeEvery: 2,
	}.NewEngine()
	if err != nil {
		log.Fatal(err)
	}

	// Cohorts from the ground-truth assignment: the malicious peers will
	// whitewash; a slice of honest peers rides out the storm offline.
	var honest []int
	for u, c := range eng.Classes() {
		switch {
		case c == trustnet.Malicious:
			adversaries = append(adversaries, u)
		case len(honest) < 20 && u > 2: // spare the pre-trusted founders
			honest = append(honest, u)
		}
	}

	// The storm as data: an epoch-indexed script of churn waves.
	storm := trustnet.Schedule{}.
		At(3, trustnet.LeaveWave{Users: honest}).          // honest peers drop out
		At(5, trustnet.LeaveWave{Users: adversaries}).     // the rated-down adversaries bail...
		At(7, trustnet.WhitewashWave{Users: adversaries}). // ...and rejoin under fresh identities
		At(9, trustnet.JoinWave{Users: honest})            // the honest cohort comes back

	// Stream the epochs; the observer sees each one as it completes, and
	// the schedule fires at the boundaries — no driving loop to hand-write.
	session, err := eng.Session(context.Background(),
		trustnet.WithMaxEpochs(epochs),
		trustnet.WithSchedule(storm),
		trustnet.OnEpoch(func(st trustnet.EpochStats) {
			fmt.Printf("  [%s] epoch %2d: trust=%.3f bad-rate=%.3f honesty=%.3f\n",
				eng.Mechanism().Name(), st.Epoch, st.Trust, st.BadRate, st.Honesty)
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, err := range session.Epochs() {
		if err != nil {
			log.Fatal(err)
		}
	}
	return eng.Mechanism().ScoresView(), adversaries
}

func mean(scores []float64, users []int) float64 {
	sum := 0.0
	for _, u := range users {
		sum += scores[u]
	}
	return sum / float64(len(users))
}
