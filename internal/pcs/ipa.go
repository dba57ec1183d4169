package pcs

import (
	"fmt"
	"math/bits"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/transcript"
	"repro/internal/zkerrors"
)

// IPAScheme is a transparent polynomial commitment: a Pedersen vector
// commitment over a hash-to-curve basis, opened with a Bulletproofs-style
// inner-product argument. Proofs are 2·log(n) points plus a scalar and
// verification costs one size-n MSM — the "larger proofs, higher
// verification time" trade-off Table 7 of the paper reports for IPA.
type IPAScheme struct {
	prefix // the generators G_i
}

// NewIPA returns an IPA scheme supporting polynomials of up to maxLen
// coefficients (rounded up to a power of two). The basis is derived by
// hash-to-curve, so no trusted setup exists; basis points are memoized
// process-wide because derivation dominates setup time (srs.go).
func NewIPA(maxLen int) *IPAScheme {
	return &IPAScheme{setups[IPA].prefix(maxLen)}
}

// Backend implements Scheme.
func (s *IPAScheme) Backend() Backend { return IPA }

// Open implements Scheme. The recursion folds vectors a (coefficients) and
// b (powers of z) and emits cross terms L, R each round. The basis is never
// folded: after j rounds folded generator m is Σ_t w_t·G_{m+t·n'} over the
// original generators (n' the current length, w the block weights of
// foldWeights), so each cross term is one MSM over the original basis with
// scalars w_t·a_m on the blocks it reads and zero elsewhere — a commit-table
// MSM, like any commitment. A round's L and R are committed together
// (CommitBatch): each runs whole on its own worker, so neither is split into
// index halves of which one is all zeros.
func (s *IPAScheme) Open(tr *transcript.Transcript, p []ff.Element, z ff.Element) *Opening {
	defer recordOpen()()
	size := len(s.basis)
	a := make([]ff.Element, size)
	copy(a, p)
	b := make([]ff.Element, size)
	acc := ff.One()
	for i := range b {
		b[i] = acc
		acc.Mul(&acc, &z)
	}

	rounds := bits.TrailingZeros(uint(size))
	proof := &Opening{L: make([]curve.Affine, 0, rounds), R: make([]curve.Affine, 0, rounds)}
	w := make([]ff.Element, 1, size)
	w[0] = ff.One()
	sl, sr := make([]ff.Element, size), make([]ff.Element, size)
	for n := size; n > 1; n /= 2 {
		h := n / 2
		cl := innerProduct(a[:h], b[h:n])
		cr := innerProduct(a[h:n], b[:h])
		// L = <a_lo, G'_hi> + c_L·U ; R = <a_hi, G'_lo> + c_R·U. Block t of
		// the basis holds G'_lo in its first half and G'_hi in its second.
		for t := range w {
			lo, hi := t*n, t*n+h
			for m := 0; m < h; m++ {
				sl[lo+m], sr[hi+m] = ff.Element{}, ff.Element{}
				sl[hi+m].Mul(&w[t], &a[m])
				sr[lo+m].Mul(&w[t], &a[h+m])
			}
		}
		lr := CommitBatch(s, [][]ff.Element{sl, sr}, false)
		la, ra := crossTerm(lr[0], &cl), crossTerm(lr[1], &cr)
		tr.AppendPoint("ipa-L", la)
		tr.AppendPoint("ipa-R", ra)
		proof.L = append(proof.L, la)
		proof.R = append(proof.R, ra)

		x := tr.Challenge("ipa-x")
		var xInv ff.Element
		xInv.Inverse(&x)
		for i := 0; i < h; i++ {
			// a' = x·a_lo + x^{-1}·a_hi
			var t1, t2 ff.Element
			t1.Mul(&x, &a[i])
			t2.Mul(&xInv, &a[i+h])
			a[i].Add(&t1, &t2)
			// b' = x^{-1}·b_lo + x·b_hi
			t1.Mul(&xInv, &b[i])
			t2.Mul(&x, &b[i+h])
			b[i].Add(&t1, &t2)
		}
		// G' = x^{-1}·G_lo + x·G_hi, carried by the weights alone.
		w = foldWeights(w, &x, &xInv)
	}
	proof.A = a[0]
	tr.AppendScalar("ipa-a", proof.A)
	return proof
}

// crossTerm returns m + c·U for m = <scalars, basis>, the cross term's basis
// MSM, which Open runs through the commit table beside its twin.
func crossTerm(m curve.Affine, c *ff.Element) curve.Affine {
	u := ipaAnchor()
	p, t := m.ToJac(), curve.ScalarMul(&u, c)
	p.AddAssign(&t)
	return p.ToAffine()
}

// foldWeights extends the block weights of a folded basis by one round. After
// j rounds of G' = x^{-1}·G_lo + x·G_hi, folded generator m is
// Σ_t w_t·G_{m+t·n'} over the original basis (len(w) = 2^j blocks of the
// current length n'); the next round halves every block, so
// w'_{2t} = w_t·x^{-1} and w'_{2t+1} = w_t·x. The prover extends w once per
// round to place its cross-term scalars; the verifier extends it over every
// round to get the final generator's weights s_i. Works in place, so w needs
// capacity 2·len(w).
func foldWeights(w []ff.Element, x, xInv *ff.Element) []ff.Element {
	h := len(w)
	w = w[:2*h]
	for t := h - 1; t >= 0; t-- {
		w[2*t+1].Mul(&w[t], x)
		w[2*t].Mul(&w[t], xInv)
	}
	return w
}

// Verify implements Scheme. The opening is untrusted: nil openings, wrong
// round counts, and a stray KZG witness point (which this check would
// silently ignore, making the wire encoding malleable) are rejected as
// malformed before any dereference.
func (s *IPAScheme) Verify(tr *transcript.Transcript, c curve.Affine, z, y ff.Element, o *Opening) error {
	if o == nil {
		return fmt.Errorf("pcs: nil IPA opening: %w", zkerrors.ErrMalformedProof)
	}
	n := len(s.basis)
	rounds := bits.TrailingZeros(uint(n))
	if len(o.L) != rounds || len(o.R) != rounds {
		return fmt.Errorf("pcs: IPA proof has %d/%d cross terms, want %d rounds: %w",
			len(o.L), len(o.R), rounds, zkerrors.ErrMalformedProof)
	}
	if !o.KZGWitness.IsZero() {
		return fmt.Errorf("pcs: IPA opening carries a KZG witness: %w", zkerrors.ErrMalformedProof)
	}
	xs := make([]ff.Element, rounds)
	xInvs := make([]ff.Element, rounds)
	for j := 0; j < rounds; j++ {
		tr.AppendPoint("ipa-L", o.L[j])
		tr.AppendPoint("ipa-R", o.R[j])
		xs[j] = tr.Challenge("ipa-x")
		xInvs[j] = xs[j]
	}
	ff.BatchInverse(xInvs)
	tr.AppendScalar("ipa-a", o.A)

	// The opening holds iff
	//
	//	C + y·U + Σ_j (x_j²·L_j + x_j^{-2}·R_j) − a·Σ_i s_i·G_i − a·b·U = 0,
	//
	// s the final generator's weights and b the fully folded b vector,
	// Π_j (x_j^{-1} + x_j·z^(2^(rounds−1−j))): one MSM over
	// basis ‖ L ‖ R ‖ U, plus C.
	scalars := make([]ff.Element, 1, n+2*rounds+1)
	scalars[0] = ff.One()
	for j := 0; j < rounds; j++ {
		scalars = foldWeights(scalars, &xs[j], &xInvs[j])
	}
	var negA ff.Element
	negA.Neg(&o.A)
	for i := range scalars {
		scalars[i].Mul(&scalars[i], &negA)
	}
	scalars = scalars[:n+2*rounds]
	for j := 0; j < rounds; j++ {
		scalars[n+j].Square(&xs[j])
		scalars[n+rounds+j].Square(&xInvs[j])
	}
	bFinal, zp := ff.One(), z
	for j := rounds - 1; j >= 0; j-- {
		var term ff.Element
		term.Mul(&xs[j], &zp)
		term.Add(&term, &xInvs[j])
		bFinal.Mul(&bFinal, &term)
		zp.Square(&zp)
	}
	var uScalar ff.Element
	uScalar.Mul(&negA, &bFinal)
	uScalar.Add(&uScalar, &y)
	scalars = append(scalars, uScalar)

	points := make([]curve.Affine, 0, len(scalars))
	points = append(points, s.basis...)
	points = append(points, o.L...)
	points = append(points, o.R...)
	points = append(points, ipaAnchor())
	check := curve.MSM(points, scalars)
	cj := c.ToJac()
	check.AddAssign(&cj)
	if !check.IsInf() {
		return fmt.Errorf("pcs: IPA opening check failed: %w", zkerrors.ErrVerifyFailed)
	}
	return nil
}

func innerProduct(a, b []ff.Element) ff.Element {
	var acc, t ff.Element
	for i := range a {
		t.Mul(&a[i], &b[i])
		acc.Add(&acc, &t)
	}
	return acc
}
