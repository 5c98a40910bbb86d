package trustnet

import (
	"bytes"
	"context"
	"encoding/gob"
	"reflect"
	"testing"
)

// fuzzScenario is the 50-peer scenario of FuzzDecodeSnapshot's seeds,
// running AnonRep when mech names it and EigenTrust otherwise.
func fuzzScenario(mech string) []Option {
	factory := EigenTrust(EigenTrustConfig{})
	if mech == "anonrep" {
		factory = AnonRep(AnonRepConfig{Seed: 5})
	}
	return sessionScenario(410, WithPeers(50), WithReputationMechanism(factory))
}

// engineImage is the engine's state in comparable form: the encoded
// snapshot without the mechanism blob, and the blob itself, decoded by
// value for AnonRep, whose blob gob-encodes its account map in map order.
func engineImage(t *testing.T, eng *Engine) ([]byte, any) {
	t.Helper()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var mech any = snap.State.Engine.Mechanism
	if snap.Mechanism == "anonrep" {
		var st anonRepState
		if err := gob.NewDecoder(bytes.NewReader(snap.State.Engine.Mechanism)).Decode(&st); err != nil {
			t.Fatal(err)
		}
		mech = st
	}
	snap.State.Engine.Mechanism = nil
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mech
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
		eng, err := New(fuzzScenario(snap.Mechanism)...)
		if err != nil {
			t.Fatal(err)
		}
		rest, mech := engineImage(t, eng)
		if err := eng.Restore(snap); err != nil {
			if gotRest, gotMech := engineImage(t, eng); !bytes.Equal(gotRest, rest) || !reflect.DeepEqual(gotMech, mech) {
				t.Fatalf("rejected restore (%v) changed the engine", err)
			}
			return
		}
		// Run may refuse to go on with an error; it must not panic.
		_, _ = eng.Run(context.Background(), 1)
	})
}
