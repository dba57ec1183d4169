package plonkish

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/ff"
	"repro/internal/pcs"
)

// TestSeededProofsPinned pins the wire: with seeded blinding the proof bytes
// are a pure function of the circuit, the witness and the prover, so their
// digests are recorded constants. A change that is meant to be invisible on
// the wire — a faster evaluator, a different schedule, a new kernel — must
// leave every digest here as it is; a change that moves one changes the
// proof format and must say so (a new wire version and fresh goldens).
//
// The cases cover the user gate, lookup and permutation constraints of the
// test circuit on both backends (KZG at 2048 rows, where the NTTs and commit
// tables take their parallel paths), and a Freivalds product whose phase-1
// gates read a squeezed ChallengeExpr and whose copy constraints bring in
// the permutation's X terms.
func TestSeededProofsPinned(t *testing.T) {
	cases := []struct {
		name    string
		backend pcs.Backend
		n       int
		want    string
	}{
		{"testCircuit/kzg", pcs.KZG, 2048, "437ae02b58f2520312a43981724b2a9cbf8984ff57a8a2514310c873827fba70"},
		{"testCircuit/ipa", pcs.IPA, 256, "f603f407d5ae6fc758b1365186752b82ec789b418ed2489026c53b74e7cf5465"},
		{"freivalds/kzg", pcs.KZG, 32, "8da41f915bed555e594c6fbdeaf520649ff954d17f11bba1c92c92c49a5a2d99"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs, fixed, inst, w := testCircuit(), testFixed(c.n), testInstance(24), testWitness(false, false, false)
			if c.name == "freivalds/kzg" {
				f := FreivaldsMatMul{M: 4, K: 3, N: 5}
				var err error
				if cs, w, inst, err = freivaldsCase(f); err != nil {
					t.Fatal(err)
				}
				fixed = freivaldsFixed(f, c.n)
			}
			pk, vk, err := Setup(cs, c.n, fixed, c.backend)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := ProveWithRand(pk, inst, w, &ctrReader{seed: sha256.Sum256([]byte("pinned-" + c.name))})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, inst, proof); err != nil {
				t.Fatal(err)
			}
			b, err := proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256.Sum256(b); hex.EncodeToString(got[:]) != c.want {
				t.Fatalf("proof digest %x, pinned %s: the proof bytes changed", got, c.want)
			}
		})
	}
}

// freivaldsCase builds the Freivalds circuit, witness and instance for f
// from the fixed test matrices.
func freivaldsCase(f FreivaldsMatMul) (*CS, Witness, [][]ff.Element, error) {
	a, b := freivaldsMats(f.M, f.K, f.N)
	cs, w, inst, _, err := f.Build(a, b)
	return cs, w, inst, err
}
