package trustnet

import (
	"context"
	"fmt"
	"testing"
)

// kernelMechanisms is the full mechanism matrix of the sparse-kernel golden
// suite. EigenTrust and PowerTrust run the CSR kernel; the rest pin the
// refactor's blast radius (their scores must be untouched by it).
func kernelMechanisms() map[string]func() MechanismFactory {
	return map[string]func() MechanismFactory{
		"eigentrust":       func() MechanismFactory { return EigenTrust(EigenTrustConfig{Pretrusted: []int{0, 1}}) },
		"powertrust":       func() MechanismFactory { return PowerTrust(PowerTrustConfig{}) },
		"powertrust-plain": func() MechanismFactory { return PowerTrustPlain(PowerTrustConfig{}) },
		"trustme":          func() MechanismFactory { return TrustMe(TrustMeConfig{}) },
		"anonrep":          func() MechanismFactory { return AnonRep(AnonRepConfig{}) },
		"none":             func() MechanismFactory { return NoReputation() },
	}
}

// TestMechanismScoresShardInvariant drives every mechanism through the
// facade at 1 vs 4 shards × three seeds: the final score vector (and the
// epoch history feeding it) must be bit-for-bit identical — mechanism
// compute now scatters over the engine's shard configuration, and shards
// must stay a pure scheduling knob.
func TestMechanismScoresShardInvariant(t *testing.T) {
	for name, factory := range kernelMechanisms() {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				run := func(shards int) ([]float64, []EpochStats) {
					eng, err := New(
						WithPeers(60),
						WithRNGSeed(seed),
						WithMix(Mix{Fractions: map[Class]float64{
							Honest:    0.6,
							Malicious: 0.2,
							Colluder:  0.2,
						}}),
						WithReputationMechanism(factory()),
						WithPrivacyPolicy(PrivacyPolicy{Disclosure: 0.9, ExposureScale: 50}),
						WithCoupling(true),
						WithEpochRounds(4),
						WithShards(shards),
					)
					if err != nil {
						t.Fatal(err)
					}
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
