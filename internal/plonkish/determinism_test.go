package plonkish

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/parallel"
	"repro/internal/pcs"
)

// ctrReader is a deterministic SHA-256 counter stream, used to stand in for
// crypto/rand so two proving runs draw identical blinding values.
type ctrReader struct {
	seed [32]byte
	ctr  uint64
	buf  []byte
}

func (c *ctrReader) Read(p []byte) (int, error) {
	for len(c.buf) < len(p) {
		h := sha256.New()
		h.Write(c.seed[:])
		var n [8]byte
		for i := 0; i < 8; i++ {
			n[i] = byte(c.ctr >> (8 * i))
		}
		h.Write(n[:])
		c.ctr++
		c.buf = h.Sum(c.buf)
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

// TestProverDeterministicAcrossParallelism proves the same circuit with the
// same seeded randomness at several worker counts and requires the proofs to
// be byte-identical: all transcript absorption and all blinding draws must
// happen on the proving goroutine in a fixed order, no matter how the
// numeric work is scheduled.
func TestProverDeterministicAcrossParallelism(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			pk, vk := setup(t, backend)
			defer parallel.SetWorkers(0)
			defer ff.SetRandomSource(nil)

			var ref []byte
			for _, workers := range []int{1, 2, 8} {
				parallel.SetWorkers(workers)
				ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("determinism-test"))})
				proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if err := Verify(vk, testInstance(24), proof); err != nil {
					t.Fatalf("workers=%d: proof does not verify: %v", workers, err)
				}
				b, err := proof.MarshalBinary()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if ref == nil {
					ref = b
				} else if !bytes.Equal(ref, b) {
					t.Fatalf("workers=%d: proof bytes differ from workers=1", workers)
				}
			}
		})
	}
}

// TestProverDeterministicLargeDomain repeats the byte-identity check on a
// 2048-row domain, where the extended coset domain crosses parallelMin and
// the table-indexed NTT actually runs its parallel butterfly schedule (the
// small-circuit variant above stays entirely on the serial path). KZG only:
// it is the backend whose commit path hits every rewritten kernel, and the
// larger domain makes the IPA variant disproportionately slow.
func TestProverDeterministicLargeDomain(t *testing.T) {
	cs := testCircuit()
	const n = 2048
	pk, vk, err := Setup(cs, n, testFixed(n), pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(0)
	defer ff.SetRandomSource(nil)

	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("determinism-large"))})
		proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := Verify(vk, testInstance(24), proof); err != nil {
			t.Fatalf("workers=%d: proof does not verify: %v", workers, err)
		}
		b, err := proof.MarshalBinary()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("workers=%d: proof bytes differ from workers=1", workers)
		}
	}
}

// TestProverDeterministicAcrossEngines proves the same circuit with the
// same seeded randomness under every commitment-engine configuration — GLV
// on/off, fixed-base commit tables on/off, serial and parallel — and
// requires byte-identical proofs: the engine choices are pure optimizations
// that must compute the same group elements. The 2048-row domain keeps the
// commitments above the table's minimum-length gate so the table path
// really runs (and the test asserts it does via the setup-work counters).
func TestProverDeterministicAcrossEngines(t *testing.T) {
	cs := testCircuit()
	const n = 2048
	pk, vk, err := Setup(cs, n, testFixed(n), pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.SetWorkers(0)
	defer ff.SetRandomSource(nil)

	configs := []struct {
		name    string
		glv     bool
		tables  bool
		workers int
	}{
		{"glv+tables", true, true, 1},
		{"glv+tables/parallel", true, true, 8},
		{"glv-only", true, false, 1},
		{"plain", false, false, 1},
	}
	var ref []byte
	for _, cfg := range configs {
		prevGLV := curve.SetGLV(cfg.glv)
		prevTab := pcs.SetCommitTables(cfg.tables)
		parallel.SetWorkers(cfg.workers)
		ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("determinism-engines"))})
		before := pcs.SetupWorkSnapshot()
		proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
		hits := pcs.SetupWorkSnapshot().Sub(before).CommitTableHits
		pcs.SetCommitTables(prevTab)
		curve.SetGLV(prevGLV)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if cfg.tables && hits == 0 {
			t.Fatalf("%s: no commitments were served by the fixed-base table", cfg.name)
		}
		if !cfg.tables && hits != 0 {
			t.Fatalf("%s: table served %d commitments while disabled", cfg.name, hits)
		}
		if err := Verify(vk, testInstance(24), proof); err != nil {
			t.Fatalf("%s: proof does not verify: %v", cfg.name, err)
		}
		b, err := proof.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Fatalf("%s: proof bytes differ from %s", cfg.name, configs[0].name)
		}
	}
}

// coeffOnly hides a scheme's Lagrange path: embedding the interface promotes
// only pcs.Scheme's methods, so commitColumn falls back to Commit(coeffs).
type coeffOnly struct{ pcs.Scheme }

// TestLagrangeCommitsInvisibleOnTheWire proves the same statement with the
// same seeded blinding twice — columns committed from their evaluations, and
// every column committed from its coefficients — and requires byte-identical
// proofs; the verifying key's commitments must likewise equal coefficient
// commitments of the interpolated columns. KZG takes the Lagrange path, IPA
// has none (DESIGN.md §14), and on neither can the wire tell.
func TestLagrangeCommitsInvisibleOnTheWire(t *testing.T) {
	const n = 256 // above the commit tables' minimum length
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			pk, vk, err := Setup(testCircuit(), n, testFixed(n), backend)
			if err != nil {
				t.Fatal(err)
			}
			if _, has := pk.Scheme.(lagrangeCommitter); has != (backend == pcs.KZG) {
				t.Fatalf("%s Lagrange path present = %v", backend, has)
			}
			coeffPK := *pk
			coeffPK.Scheme = coeffOnly{pk.Scheme}
			var proofs [2][]byte
			for i, key := range []*ProvingKey{pk, &coeffPK} {
				rng := &ctrReader{seed: sha256.Sum256([]byte("lagrange-wire"))}
				proof, err := ProveWithRand(key, testInstance(24), testWitness(false, false, false), rng)
				if err != nil {
					t.Fatal(err)
				}
				if err := Verify(vk, testInstance(24), proof); err != nil {
					t.Fatal(err)
				}
				if proofs[i], err = proof.MarshalBinary(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(proofs[0], proofs[1]) {
				t.Fatal("proof bytes differ between the Lagrange and the coefficient path")
			}
			for i, p := range pk.FixedPolys {
				if c := pk.Scheme.Commit(p); !c.Equal(&vk.FixedCommits[i]) {
					t.Fatalf("fixed commitment %d differs from its coefficient commitment", i)
				}
			}
			for i, p := range pk.SigmaPolys {
				if c := pk.Scheme.Commit(p); !c.Equal(&vk.SigmaCommits[i]) {
					t.Fatalf("sigma commitment %d differs from its coefficient commitment", i)
				}
			}
		})
	}
}

// TestEmptyLookupRejected is the regression test for the compressRow panic:
// a lookup with no input expressions must be rejected at Setup/Validate time
// with a descriptive error, not crash the prover with an index panic.
func TestEmptyLookupRejected(t *testing.T) {
	cs := &CS{NumFixed: 1, NumAdvice: 1}
	cs.AddLookup(Lookup{
		Name:     "empty",
		Selector: V(FixedCol(0)),
		TableLen: 4,
	})
	if err := cs.Validate(); err == nil {
		t.Fatal("Validate accepted a lookup with no inputs")
	} else if !strings.Contains(err.Error(), "no input expressions") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, _, err := Setup(cs, 32, testFixed(32)[:1], pcs.KZG); err == nil {
		t.Fatal("Setup accepted a lookup with no inputs")
	}
}
