package crypto

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"repro/internal/sim"
)

// VerifyAdvance checks that proof is the pre-image linking oldPseudonym to
// the chain state that produces newPseudonym.
func VerifyAdvance(oldPseudonym, newPseudonym string, proof [32]byte) bool {
	if hex.EncodeToString(proof[:12]) != oldPseudonym {
		return false
	}
	next := sha256.Sum256(proof[:])
	return hex.EncodeToString(next[:12]) == newPseudonym
}

func TestTransactionCertRoundTrip(t *testing.T) {
	key := []byte("tha-secret")
	c := SealCert(key, 42, "aa11", "bb22")
	if err := VerifyCert(key, c); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionCertTamper(t *testing.T) {
	key := []byte("tha-secret")
	c := SealCert(key, 42, "aa11", "bb22")

	tampered := c
	tampered.TxID = 43
	if err := VerifyCert(key, tampered); !errors.Is(err, ErrBadCertificate) {
		t.Fatalf("tampered TxID: err = %v", err)
	}

	tampered = c
	tampered.From = "cc33"
	if err := VerifyCert(key, tampered); !errors.Is(err, ErrBadCertificate) {
		t.Fatal("tampered From accepted")
	}

	if err := VerifyCert([]byte("wrong-key"), c); !errors.Is(err, ErrBadCertificate) {
		t.Fatal("wrong key accepted")
	}
}

func TestCertFieldSeparation(t *testing.T) {
	// ("ab","c") must not collide with ("a","bc"): the MAC uses a separator.
	key := []byte("k")
	c1 := SealCert(key, 1, "ab", "c")
	c2 := TransactionCert{TxID: 1, From: "a", To: "bc", MAC: c1.MAC}
	if err := VerifyCert(key, c2); err == nil {
		t.Fatal("field-boundary collision")
	}
}

func TestPseudonymChain(t *testing.T) {
	p := NewPseudonymChain(SeedFromUint64(5))
	p0 := p.Current()
	proof := p.State().State
	p1 := p.Advance()
	if p0 == p1 {
		t.Fatal("pseudonym did not change")
	}
	if e := p.State().Epoch; e != 1 {
		t.Fatalf("epoch = %d", e)
	}
	if !VerifyAdvance(p0, p1, proof) {
		t.Fatal("valid advance proof rejected")
	}
	var fake [32]byte
	if VerifyAdvance(p0, p1, fake) {
		t.Fatal("fake proof accepted")
	}
	if VerifyAdvance(p1, p0, proof) {
		t.Fatal("reversed advance accepted")
	}
}

func TestPseudonymChainsIndependent(t *testing.T) {
	rng := sim.NewRNG(11)
	a := NewPseudonymChain(SeedFromUint64(rng.Uint64()))
	b := NewPseudonymChain(SeedFromUint64(rng.Uint64()))
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		pa, pb := a.Advance(), b.Advance()
		if seen[pa] || seen[pb] || pa == pb {
			t.Fatal("pseudonym collision across chains")
		}
		seen[pa], seen[pb] = true, true
	}
}
