package plonkish

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pcs"
)

// TestShapeOf checks ShapeOf against the keys and a proof of the test
// circuit on both backends. The nine bundled models are checked against
// traced proves in internal/core (TestShapeMatchesTrace).
func TestShapeOf(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		pk, vk := setup(t, backend)
		s := ShapeOf(pk.CS, pk.N, backend)
		// Gates (1) + lookup constraints (3) + permutation (1 start + 2
		// running + 1 chain + 1 final) = 9.
		if s.NumConstraints != 9 {
			t.Fatalf("%v: NumConstraints = %d, want 9", backend, s.NumConstraints)
		}
		if s.ExtN != pk.ExtDomain.N || s.DMax != pk.DMax || s.Queries != len(pk.Queries) ||
			s.Ops != pk.Quotient.Len() || s.VaryingOps != pk.Quotient.Varying() {
			t.Fatalf("%v: shape %+v disagrees with the proving key", backend, s)
		}
		proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(vk, testInstance(24), proof); err != nil {
			t.Fatal(err)
		}
		if s.ProofBytes != proof.Size() {
			t.Fatalf("%v: ProofBytes = %d, proof.Size() = %d", backend, s.ProofBytes, proof.Size())
		}
		if s.Opens != len(proof.Openings) || s.Commits[obs.StageQuotient] != len(proof.QuotientCommits) ||
			s.Commits[obs.StagePerm] != len(proof.ZCommits) {
			t.Fatalf("%v: shape %+v disagrees with the proof", backend, s)
		}
	}
}
