package pcs

import (
	"fmt"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/poly"
	"repro/internal/transcript"
	"repro/internal/zkerrors"
)

// KZGScheme is the KZG polynomial commitment: commitments are MSMs against
// a powers-of-tau SRS; an opening at z is a single quotient-witness
// commitment.
//
// Substitution note (see DESIGN.md §4): the production verification
// equation e(C - y·G, H) = e(pi, (tau - z)·H) needs BN254 pairings, which
// are out of scope for this stdlib-only build. The verifier instead checks
// the identical algebraic relation (tau - z)·pi == C - y·G directly in G1
// using the setup trapdoor retained in the SRS — the same proofs, prover
// cost, and proof sizes as real KZG, with a test-oracle verifier.
type KZGScheme struct {
	prefix // the powers tau^i * G
}

// NewKZG returns a KZG scheme supporting polynomials of up to maxLen
// coefficients. SRS generation is deterministic per process and shared
// across instances (a per-process "ceremony"; see srs.go).
func NewKZG(maxLen int) *KZGScheme {
	return &KZGScheme{setups[KZG].prefix(maxLen)}
}

// Backend implements Scheme.
func (k *KZGScheme) Backend() Backend { return KZG }

// Open implements Scheme: pi = Commit((p - p(z)) / (X - z)).
func (k *KZGScheme) Open(tr *transcript.Transcript, p []ff.Element, z ff.Element) *Opening {
	defer recordOpen()()
	y := poly.Eval(p, z)
	shifted := append([]ff.Element(nil), p...)
	if len(shifted) == 0 {
		shifted = []ff.Element{ff.Zero()}
	}
	shifted[0].Sub(&shifted[0], &y)
	q := poly.DivideByLinear(shifted, z)
	pi := k.Commit(q)
	tr.AppendPoint("kzg-witness", pi)
	return &Opening{KZGWitness: pi}
}

// Verify implements Scheme, checking (tau - z)·pi == C - y·G in G1 (the
// trapdoor form of the pairing equation; see type doc). The opening is
// untrusted: a nil opening or one carrying IPA fields (which this check
// would silently ignore, making the wire encoding malleable) is rejected
// as malformed.
func (k *KZGScheme) Verify(tr *transcript.Transcript, c curve.Affine, z, y ff.Element, o *Opening) error {
	if o == nil {
		return fmt.Errorf("pcs: nil KZG opening: %w", zkerrors.ErrMalformedProof)
	}
	if len(o.L) != 0 || len(o.R) != 0 || !o.A.IsZero() {
		return fmt.Errorf("pcs: KZG opening carries IPA fields: %w", zkerrors.ErrMalformedProof)
	}
	tr.AppendPoint("kzg-witness", o.KZGWitness)
	s, g := kzgTau(), curve.Generator()
	s.Sub(&s, &z)
	lhs := curve.ScalarMul(&o.KZGWitness, &s)
	yG := curve.ScalarMul(&g, &y)
	rhs := c.ToJac()
	yG.NegAssign()
	rhs.AddAssign(&yG)
	la, ra := lhs.ToAffine(), rhs.ToAffine()
	if !la.Equal(&ra) {
		return fmt.Errorf("pcs: KZG opening check failed: %w", zkerrors.ErrVerifyFailed)
	}
	return nil
}
