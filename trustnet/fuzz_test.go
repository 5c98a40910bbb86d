package trustnet

import (
	"bytes"
	"context"
	"testing"
)

// fuzzScenario is the 50-peer scenario of FuzzDecodeSnapshot's seeds,
// running AnonRep when mech names it and EigenTrust otherwise.
func fuzzScenario(mech string) Scenario {
	sc := sessionScenario(410)
	sc.Peers = 50
	if mech == "anonrep" {
		sc.Mechanism = MechanismSpec{Kind: "anonrep", Seed: 5}
	}
	return sc
}

// engineImage is the engine's state as its encoded snapshot, which is
// byte-stable for both mechanisms.
func engineImage(t *testing.T, eng *Engine) []byte {
	t.Helper()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeSnapshot feeds hostile bytes to the snapshot boundary: decode,
// then restore onto a fresh engine of the seeds' scenario. A restore either
// fails and leaves the engine exactly as it was, or the engine runs one
// epoch without a panic. The seeds under testdata/fuzz are Encode outputs of
// that scenario with EigenTrust and with AnonRep.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		eng, err := fuzzScenario(snap.Mechanism()).NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		before := engineImage(t, eng)
		if err := eng.Restore(snap); err != nil {
			if !bytes.Equal(engineImage(t, eng), before) {
				t.Fatalf("rejected restore (%v) changed the engine", err)
			}
			return
		}
		// Run may refuse to go on with an error; it must not panic.
		_, _ = eng.Run(context.Background(), 1)
	})
}
