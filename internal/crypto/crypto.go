// Package crypto provides the cryptographic substrate the reproduced
// protocols rely on: HMAC-sealed transaction certificates (TrustMe's
// pairwise certificates, §2.2 of the paper) and hash-chain pseudonyms that
// approximate the anonymous-reputation schemes the paper cites ([2], [4]).
//
// Everything is stdlib-only (crypto/hmac, crypto/sha256).
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// SeedFromUint64 expands a 64-bit simulation seed into a 32-byte key seed.
func SeedFromUint64(v uint64) [32]byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return sha256.Sum256(b[:])
}

// ErrBadCertificate is returned when a transaction certificate fails
// verification.
var ErrBadCertificate = errors.New("crypto: bad transaction certificate")

// TransactionCert is TrustMe's pairwise transaction certificate: both parties
// commit to the transaction id before it takes place, sealed with an HMAC
// under the trust-holding agent's key so that reports cannot be forged or
// replayed against a different transaction.
type TransactionCert struct {
	TxID     uint64
	From, To string // fingerprints
	MAC      []byte
}

// SealCert creates a certificate for transaction txID between two peers
// under key (the THA's secret).
func SealCert(key []byte, txID uint64, from, to string) TransactionCert {
	c := TransactionCert{TxID: txID, From: from, To: to}
	c.MAC = certMAC(key, c)
	return c
}

// VerifyCert checks the certificate seal. It returns ErrBadCertificate on
// any mismatch.
func VerifyCert(key []byte, c TransactionCert) error {
	if !hmac.Equal(c.MAC, certMAC(key, c)) {
		return fmt.Errorf("%w: tx %d %s->%s", ErrBadCertificate, c.TxID, c.From, c.To)
	}
	return nil
}

func certMAC(key []byte, c TransactionCert) []byte {
	h := hmac.New(sha256.New, key)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], c.TxID)
	h.Write(b[:])
	h.Write([]byte(c.From))
	h.Write([]byte{0})
	h.Write([]byte(c.To))
	return h.Sum(nil)
}

// PseudonymChain generates unlinkable-looking pseudonyms from a private seed
// by hash chaining: P_i = H(P_{i-1}). Only the owner can prove ownership of
// an epoch pseudonym by revealing a pre-image. This is the lightweight
// stand-in for the anonymous reputation credentials of the cited schemes.
type PseudonymChain struct {
	state [32]byte
	epoch int
}

// NewPseudonymChain creates a chain from a secret seed.
func NewPseudonymChain(seed [32]byte) *PseudonymChain {
	return &PseudonymChain{state: sha256.Sum256(seed[:])}
}

// Current returns the pseudonym for the current epoch.
func (p *PseudonymChain) Current() string {
	return hex.EncodeToString(p.state[:12])
}

// Advance moves to the next epoch and returns the new pseudonym. The
// previous state is the proof pre-image for the old pseudonym.
func (p *PseudonymChain) Advance() string {
	p.state = sha256.Sum256(p.state[:])
	p.epoch++
	return p.Current()
}
