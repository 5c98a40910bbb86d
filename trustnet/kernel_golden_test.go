package trustnet

import (
	"context"
	"fmt"
	"testing"
)

// kernelMechanisms is the full mechanism matrix of the sparse-kernel golden
// suite. EigenTrust and PowerTrust run the CSR kernel; the rest pin the
// refactor's blast radius (their scores must be untouched by it).
func kernelMechanisms() map[string]MechanismSpec {
	return map[string]MechanismSpec{
		"eigentrust":       {Pretrusted: []int{0, 1}},
		"powertrust":       {Kind: "powertrust"},
		"powertrust-plain": {Kind: "powertrust-plain"},
		"trustme":          {Kind: "trustme"},
		"anonrep":          {Kind: "anonrep"},
		"none":             {Kind: "none"},
	}
}

// TestMechanismScoresShardInvariant drives every mechanism through the
// facade at 1 vs 4 shards × three seeds: the final score vector (and the
// epoch history feeding it) must be bit-for-bit identical — mechanism
// compute now scatters over the engine's shard configuration, and shards
// must stay a pure scheduling knob.
func TestMechanismScoresShardInvariant(t *testing.T) {
	for name, spec := range kernelMechanisms() {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				run := func(shards int) ([]float64, []EpochStats) {
					eng := newEngine(t, Scenario{
						Peers: 60,
						Seed:  seed,
						Mix: &MixSpec{Fractions: map[string]float64{
							"honest":    0.6,
							"malicious": 0.2,
							"colluder":  0.2,
						}},
						Mechanism:   spec,
						Privacy:     &PrivacyPolicy{Disclosure: 0.9, ExposureScale: 50},
						Coupled:     true,
						EpochRounds: 4,
						Shards:      shards,
					})
					hist, err := eng.Run(context.Background(), 3)
					if err != nil {
						t.Fatal(err)
					}
					return eng.Mechanism().ScoresView(), hist
				}
				refScores, refHist := run(1)
				gotScores, gotHist := run(4)
				for j := range refScores {
					if gotScores[j] != refScores[j] {
						t.Fatalf("score[%d]: shards=4 %v != shards=1 %v (bit-for-bit contract)",
							j, gotScores[j], refScores[j])
					}
				}
				for i := range refHist {
					if gotHist[i] != refHist[i] {
						t.Fatalf("epoch %d diverged across shard counts", i)
					}
				}
			})
		}
	}
}
