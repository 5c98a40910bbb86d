package reputation_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/reputation"
	"repro/internal/reputation/eigentrust"
	"repro/internal/reputation/powertrust"
	"repro/internal/sim"
)

// iterative is the surface the golden stream drives: the power-iteration
// mechanisms with their batch, block-partial and diagnostics seams.
type iterative interface {
	reputation.Mechanism
	reputation.BatchSubmitter
	reputation.SpMVDelegator
	reputation.BlockScatterer
	reputation.ConvergenceReporter
	Raw() []float64
}

// goldenN spans three canonical SpMV blocks, so the block-fold runs really
// split the product.
const goldenN = 600

// blockFold returns a delegate that computes every product the cluster's
// way: the canonical blocks scattered in `shards` contiguous ranges, as that
// many workers would, and folded by linalg.FoldBlocks.
func blockFold(m iterative, shards int) reputation.SpMVDelegate {
	return func(y, x []float64) (float64, bool) {
		blocks := m.SpMVBlocks()
		var parts []linalg.BlockPartial
		for k := 0; k < shards; k++ {
			parts = append(parts, m.SpMVScatterBlocks(x, k*blocks/shards, (k+1)*blocks/shards)...)
		}
		return linalg.FoldBlocks(y, parts)
	}
}

// goldenDigests are SHA-256 digests of goldenStream's output, one per
// mechanism and start; the local kernel (shards=1) and the block fold over
// four block ranges (shards=4) must both reproduce it.
// They were recorded once and must never be regenerated to make a change
// pass: a differing digest means the change moved a score, an iteration
// count, a residual or a snapshot byte.
var goldenDigests = map[string]string{
	"eigentrust-pretrusted/warm": "863478d3e3d794d8b9cc2a463e3f5b7d4de1cc09dd95b7de6c8a068360dd8359",
	"eigentrust-pretrusted/cold": "a134a04a399e47f5b11e7f2a3d1de1eb33082e248bd323ce51f020797ea3a254",
	"eigentrust-uniform/warm":    "8f6793780180d6aae71cae8bcfbcb34573ab8da52d7830afe307153c10366b53",
	"eigentrust-uniform/cold":    "a321e558950872a51d83d44a1ebedf820526b859946ae2de4f871c2f9bf8dc41",
	"powertrust/warm":            "cc633ebfa0f836c537ff104b94da3d2af47be7b59d13290a3bfb52649b147ca1",
	"powertrust/cold":            "a21f84b4f3f06c703670308b47e7bbca28882ca713e25754f4e805531c105f99",
	"powertrust-plain/warm":      "47816317a010668b849ed79044db68ed9585ff28957fb3b773231c39347c90fb",
	"powertrust-plain/cold":      "e02f9ed17eb415035f2f4d0b9c0f3dad59803423dbe7740fc416b17f808eefb8",
}

// goldenStream feeds a fixed seeded report stream through build's mechanism
// in five phases — single and batched submits, silent (dangling) raters,
// out-of-range values — with a Compute after each phase and a
// snapshot→restore into a fresh mechanism after the second. It hashes the
// bits of Raw(), the iteration count and LastConvergence after every
// Compute, and the MechanismState bytes after every phase.
func goldenStream(t *testing.T, build func() (iterative, error), shards int) string {
	t.Helper()
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if shards > 1 {
		m.SetSpMVDelegate(blockFold(m, shards))
	}
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	rng := sim.NewRNG(20261017)
	values := []float64{0, 1, 0.5, -0.25, 1.5}
	for phase := 0; phase < 5; phase++ {
		var batch []reputation.Report
		for k := 0; k < 1200; k++ {
			i, j := rng.Intn(goldenN), rng.Intn(goldenN)
			if i == j || i%9 == 0 {
				continue // self-ratings skipped, every ninth rater stays silent
			}
			v := rng.Float64()
			if k%17 == 0 {
				v = values[(k/17)%len(values)]
			}
			r := reputation.Report{TxID: uint64(phase*1000 + k), Rater: i, Ratee: j, Value: v}
			if k%3 == 0 {
				if err := m.Submit(r); err != nil {
					t.Fatal(err)
				}
			} else {
				batch = append(batch, r)
			}
		}
		if err := m.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		if phase == 2 {
			blob, err := m.MechanismState()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if shards > 1 {
				fresh.SetSpMVDelegate(blockFold(fresh, shards))
			}
			if err := fresh.RestoreMechanismState(blob); err != nil {
				t.Fatal(err)
			}
			m = fresh
		}
		word(uint64(m.Compute()))
		for _, v := range m.Raw() {
			word(math.Float64bits(v))
		}
		conv, ok := m.LastConvergence()
		if !ok {
			t.Fatalf("phase %d: no convergence diagnostics after Compute", phase)
		}
		word(uint64(conv.Iterations))
		word(math.Float64bits(conv.Residual))
		if conv.Warm {
			word(1)
		} else {
			word(0)
		}
		blob, err := m.MechanismState()
		if err != nil {
			t.Fatal(err)
		}
		word(uint64(len(blob)))
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestIterativeMechanismGoldenDigests pins the iterative mechanisms' scores,
// diagnostics and snapshot bytes across commits. The in-build suites
// compare against dense references within 1e-9 or against each other; this
// one compares every bit against digests recorded from an earlier build.
func TestIterativeMechanismGoldenDigests(t *testing.T) {
	const n = goldenN
	mechs := []struct {
		name  string
		build func(cold bool) (iterative, error)
	}{
		{"eigentrust-pretrusted", func(cold bool) (iterative, error) {
			return eigentrust.New(eigentrust.Config{N: n, Pretrusted: []int{0, 1}, ColdStart: cold})
		}},
		{"eigentrust-uniform", func(cold bool) (iterative, error) {
			return eigentrust.New(eigentrust.Config{N: n, ColdStart: cold})
		}},
		{"powertrust", func(cold bool) (iterative, error) {
			return powertrust.New(powertrust.Config{N: n, M: 4, ColdStart: cold})
		}},
		{"powertrust-plain", func(cold bool) (iterative, error) {
			return powertrust.NewPlain(powertrust.Config{N: n, M: 4, ColdStart: cold})
		}},
	}
	for _, mech := range mechs {
		for _, cold := range []bool{false, true} {
			start := "warm"
			if cold {
				start = "cold"
			}
			key := mech.name + "/" + start
			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/shards=%d", key, shards), func(t *testing.T) {
					got := goldenStream(t, func() (iterative, error) { return mech.build(cold) }, shards)
					if want := goldenDigests[key]; got != want {
						t.Errorf("digest %s, recorded %q", got, want)
					}
				})
			}
		}
	}
}
