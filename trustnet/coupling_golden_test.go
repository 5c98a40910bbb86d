package trustnet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// couplingGoldenDigests are SHA-256 digests of the %#v rendering (every
// float in its shortest round-tripping form, so equal text means equal bits)
// of the epoch history of each TestCouplingGoldenDigests case, recorded from an earlier
// build. They pin the §3 coupling path — when disclosure and honesty reach
// the workload engine, and the values they carry — bit for bit across
// commits.
var couplingGoldenDigests = map[string]string{
	"eigentrust/coupled=false/h0=0.3/interventions": "68fc03eca32d26eeb28a75d047f065a8b7e2b6ac2c47d309e5f50f1f7789f5d1",
	"eigentrust/coupled=false/h0=0.3/none":          "1c5bad345cd915bc45826ecbf7775b1ef5444e28e8651ae51c12cb4d23747791",
	"eigentrust/coupled=false/h0=0.3/toggle":        "9cef40825c168701a0b341db1f25c52276d823efc49abd886760799d74364d45",
	"eigentrust/coupled=false/h0=0/interventions":   "55f0f4820b83c29eba81aaeb952f057b54b2bfd2e9bcdfeb3d8ac9cbf87cfd1b",
	"eigentrust/coupled=false/h0=0/none":            "f4dbe60bd8476a9f9c459e1b295c573b21792aa016d5df24ccb1479826fd73e3",
	"eigentrust/coupled=false/h0=0/toggle":          "b3032e6218afe71f43fc1b144c7167dcf87f3563b4e9c39a5079d8395e6745f9",
	"eigentrust/coupled=false/h0=1/interventions":   "27873da7424a0f3d83f34d9467d18977c3e2d89f095148f63fd25d90e2fc9b47",
	"eigentrust/coupled=false/h0=1/none":            "a01303d55b8ef999acb50d0252ae2ce79fbdb96cac42d4da24fb13ac756e2373",
	"eigentrust/coupled=false/h0=1/toggle":          "a68581dee323274ab53a8bc4ebd90742fb9378723f41d82ba918cf85a6004823",
	"eigentrust/coupled=true/h0=0.3/interventions":  "66a0ed1d4610b4f38b5b8cd7964d7c31f6edaad343f0c37e6006d2e5a5df8201",
	"eigentrust/coupled=true/h0=0.3/none":           "3920da95db07da47aaff55197131263b4b13e6f23b69fbd8ce683d21d2f5fe5a",
	"eigentrust/coupled=true/h0=0.3/toggle":         "01ea396322a9d612c4f4cdc2215e34d835d504e01ce05d9fccaa896f4ac06390",
	"eigentrust/coupled=true/h0=0/interventions":    "4450e7502a4542c4232d16d4592e4041b1856b733fef32cf47d84e33bdab1cb9",
	"eigentrust/coupled=true/h0=0/none":             "f0924bf71cb71526d232d4ca3c6e0fec24fe0981a5296ef654f213a7acaf9d93",
	"eigentrust/coupled=true/h0=0/toggle":           "245cd6e8a584e97ad046fa7a90123255c4685af78fde58944c7ac6a51c739b1b",
	"eigentrust/coupled=true/h0=1/interventions":    "5be41bc483eada3e410e7dee93cafc8ff836d146a85eb9c4c06b19577c9b1735",
	"eigentrust/coupled=true/h0=1/none":             "f84c607f7f1735a476773c3c84469733302e7f29c3d25ad7968ac1ae7fc3901d",
	"eigentrust/coupled=true/h0=1/toggle":           "3e5efe4ce1b5b7fc7167ca3175a77adac9c30dd4fe507977c6f703d974e79247",
	"none/coupled=false/h0=0.3/interventions":       "09f758aafda3f9a0c1cc0dc942a7dbb258b4c4babefeccf656d539098988e9ff",
	"none/coupled=false/h0=0.3/none":                "20d2272638caabe66ff2266687607ae2f1d60f894aaef5c92b9d297d7a8f80e8",
	"none/coupled=false/h0=0.3/toggle":              "dd65f0aeb3628e2891c7b57a68b89e96d094d333fb8109373c1c8e70ca6e2094",
	"none/coupled=false/h0=0/interventions":         "04e0efb92b928c53395c9328ce5f6bcc40a87b6f88b856128b5fb11f03d3969f",
	"none/coupled=false/h0=0/none":                  "ac419c9ab1f21f63d44ab94aababeca635a4eeed5e866acb0607f1222379caa2",
	"none/coupled=false/h0=0/toggle":                "41e1ef0d642f03844c485f8daf9fe5f8396479cbc3bf10d6a546699bf1ca1a2f",
	"none/coupled=false/h0=1/interventions":         "d0d146ed5fb36bee0238f788a1f433e6bf5eec982b5c71a81661c7d96cd4548d",
	"none/coupled=false/h0=1/none":                  "d032ff64737860079d6530371e78f865cfc6ebf6cbc13b7bff75c79820d42ae9",
	"none/coupled=false/h0=1/toggle":                "39b0ccf9eb57ef46804fa54962c971d2043f0a98bedafb6188b0593ad1bf2c29",
	"none/coupled=true/h0=0.3/interventions":        "f766a03e197762d846c35efc1b87696a51383fb28339ebc4ba7b90a79c2d3f8c",
	"none/coupled=true/h0=0.3/none":                 "3c0ab89659ba4757df0c5d2b11388f5dd7f621ab1970c87dc77f8b5a0a37c76d",
	"none/coupled=true/h0=0.3/toggle":               "2b7499219ef6f1f69673aa99883cc35f1b8be2ba496e0a4c07e2b0402c2b6fca",
	"none/coupled=true/h0=0/interventions":          "8bbffafcc0fca1ddf813b837684e7e7c742713973025722ac213e8a618fb46cd",
	"none/coupled=true/h0=0/none":                   "0b90e79acf909dff489f1849a81462efae188fc187e32e4fdce9e3b7a64b8fe2",
	"none/coupled=true/h0=0/toggle":                 "6711239999b499a1b1c9f42818807fa325bc2ff32f15e07a92702f106988b39c",
	"none/coupled=true/h0=1/interventions":          "c3c00a8dfba81ed740143276bad47a8d76f069ed64db2dd0b9e379a2c4a1eeff",
	"none/coupled=true/h0=1/none":                   "ae652b8602216ae1d873251d1596cc53cc944a09accecd30a83177cb2c22eee3",
	"none/coupled=true/h0=1/toggle":                 "977df2020f10727a3eb9e42b004f7a94baf724951ec5f932853fc85dc76a6e2b",
}

// couplingSummaryDigests pin the Summary after interaction rounds run
// before any epoch: those rounds run on behaviour-class honesty and the
// scenario's base disclosure, coupled or not.
var couplingSummaryDigests = map[string]string{
	"rounds/coupled=false": "5fc1dfc50bc2450b7fd634c726a68426f983ee0049a3d7eaec5a102632227ee6",
	"rounds/coupled=true":  "5fc1dfc50bc2450b7fd634c726a68426f983ee0049a3d7eaec5a102632227ee6",
}

// couplingSchedules are the intervention schedules of the coupling golden
// suite: none, a coupling toggle at epochs 0 and 3 (flipping the scenario's
// setting and then restoring it), and the three interventions that rewrite
// the coupling variables' inputs.
func couplingSchedules(coupled bool) map[string]Schedule {
	return map[string]Schedule{
		"none": {},
		"toggle": Schedule{}.
			At(0, CouplingChange{Enabled: !coupled}).
			At(3, CouplingChange{Enabled: coupled}),
		"interventions": Schedule{}.
			At(1, DisclosureChange{Base: 0.4}).
			At(2, HonestyChange{Base: 0.7}).
			At(3, DisclosureChange{Base: 0}).
			At(4, PolicyChange{Policy: PrivacyPolicy{Disclosure: 0.9, TrustGate: 0.15, ExposureScale: 40}}),
	}
}

// TestCouplingGoldenDigests drives every combination of mechanism, coupling
// on/off, base honesty h0 and intervention schedule for six epochs, uninterrupted
// and resumed through Encode/DecodeSnapshot at epochs 0 and 3. Each resumed
// history must equal the uninterrupted one, whose digest must match the
// recorded one.
func TestCouplingGoldenDigests(t *testing.T) {
	const epochs = 6
	// gob bytes depend on which types the process encoded first, so the
	// digests hash the %#v text instead.
	digest := func(v any) string {
		sum := sha256.Sum256(fmt.Appendf(nil, "%#v", v))
		return hex.EncodeToString(sum[:])
	}
	// The scenario's EigenTrust moves the reputation facet every epoch, so
	// every coupling pass is a full one; without a mechanism the facet holds
	// still and later passes visit only the update candidates.
	mechs := map[string]MechanismSpec{
		"eigentrust": {},
		"none":       {Kind: "none"},
	}
	for mech, spec := range mechs {
		for _, coupled := range []bool{false, true} {
			for _, h0 := range []float64{0, 0.3, 1} {
				for name, sched := range couplingSchedules(coupled) {
					key := fmt.Sprintf("%s/coupled=%v/h0=%v/%s", mech, coupled, h0, name)
					t.Run(key, func(t *testing.T) {
						build := func() *Engine {
							sc := sessionWith(503, spec)
							sc.Coupled = coupled
							sc.BaseHonesty = floatPtr(h0)
							return newEngine(t, sc)
						}
						drive := func(eng *Engine, n int) {
							if n == 0 {
								return
							}
							s, err := eng.Session(context.Background(), WithMaxEpochs(n), WithSchedule(sched))
							if err != nil {
								t.Fatal(err)
							}
							for _, err := range s.Epochs() {
								if err != nil {
									t.Fatal(err)
								}
							}
						}
						full := build()
						drive(full, epochs)
						want := histBytes(t, full.History())
						if got := digest(full.History()); got != couplingGoldenDigests[key] {
							t.Errorf("digest %s, recorded %q", got, couplingGoldenDigests[key])
						}
						for _, boundary := range []int{0, 3} {
							first := build()
							drive(first, boundary)
							snap := snapshotRoundTrip(t, first)
							second := build()
							if err := second.Restore(snap); err != nil {
								t.Fatal(err)
							}
							drive(second, epochs-boundary)
							if !bytes.Equal(want, histBytes(t, second.History())) {
								t.Errorf("resume at epoch %d diverges from the uninterrupted run", boundary)
							}
						}
					})
				}
			}
		}
	}
	for _, coupled := range []bool{false, true} {
		key := fmt.Sprintf("rounds/coupled=%v", coupled)
		t.Run(key, func(t *testing.T) {
			sc := sessionScenario(503)
			sc.Coupled = coupled
			eng := newEngine(t, sc)
			eng.RunRounds(8)
			if got := digest(eng.Summary()); got != couplingSummaryDigests[key] {
				t.Errorf("digest %s, recorded %q", got, couplingSummaryDigests[key])
			}
		})
	}
}
