package pcs

import (
	"errors"
	"math/bits"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/poly"
	"repro/internal/transcript"
	"repro/internal/zkerrors"
)

// openFolding is the textbook IPA opening the weighted Open replaced: it
// folds the basis itself each round, G' = x^{-1}·G_lo + x·G_hi, and takes L
// and R as MSMs over the folded points. Kept as the reference Open must
// match point for point.
func openFolding(s *IPAScheme, tr *transcript.Transcript, p []ff.Element, z ff.Element) *Opening {
	a := make([]ff.Element, s.n)
	copy(a, p)
	b := make([]ff.Element, s.n)
	acc := ff.One()
	for i := range b {
		b[i] = acc
		acc.Mul(&acc, &z)
	}
	g := make([]curve.Jac, s.n)
	for i := range g {
		g[i] = s.basis[i].ToJac()
	}
	scalarMulJac := func(p *curve.Jac, e *ff.Element) curve.Jac {
		a := p.ToAffine()
		return curve.ScalarMul(&a, e)
	}

	rounds := bits.TrailingZeros(uint(s.n))
	proof := &Opening{L: make([]curve.Affine, 0, rounds), R: make([]curve.Affine, 0, rounds)}
	for n := s.n; n > 1; n /= 2 {
		h := n / 2
		cl := innerProduct(a[:h], b[h:n])
		cr := innerProduct(a[h:n], b[:h])
		l := curve.MSM(curve.BatchToAffine(g[h:n]), a[:h])
		t := curve.ScalarMul(&s.u, &cl)
		l.AddAssign(&t)
		r := curve.MSM(curve.BatchToAffine(g[:h]), a[h:n])
		t = curve.ScalarMul(&s.u, &cr)
		r.AddAssign(&t)

		la, ra := l.ToAffine(), r.ToAffine()
		tr.AppendPoint("ipa-L", la)
		tr.AppendPoint("ipa-R", ra)
		proof.L = append(proof.L, la)
		proof.R = append(proof.R, ra)

		x := tr.Challenge("ipa-x")
		var xInv ff.Element
		xInv.Inverse(&x)
		for i := 0; i < h; i++ {
			var t1, t2 ff.Element
			t1.Mul(&x, &a[i])
			t2.Mul(&xInv, &a[i+h])
			a[i].Add(&t1, &t2)
			t1.Mul(&xInv, &b[i])
			t2.Mul(&x, &b[i+h])
			b[i].Add(&t1, &t2)
			lo := scalarMulJac(&g[i], &xInv)
			hi := scalarMulJac(&g[i+h], &x)
			lo.AddAssign(&hi)
			g[i] = lo
		}
	}
	proof.A = a[0]
	tr.AppendScalar("ipa-a", proof.A)
	return proof
}

// TestIPAOpenMatchesFoldingReference: the weighted Open emits the same L, R
// and A as the folding reference, below commitTableMinLen (generic MSMs) and
// above it (the commit table), and the verifier accepts it.
func TestIPAOpenMatchesFoldingReference(t *testing.T) {
	sizes := []int{1, 2, 32, 64, 128, 2048}
	if commitTableMinLen != 64 {
		t.Fatalf("commitTableMinLen = %d: pick sizes that straddle it again", commitTableMinLen)
	}
	for _, n := range sizes {
		s := NewIPA(n)
		p := randPoly(n)
		z := ff.Random()
		got := s.Open(transcript.New("ipa-ref"), p, z)
		want := openFolding(s, transcript.New("ipa-ref"), p, z)
		if len(got.L) != len(want.L) || len(got.R) != len(want.R) {
			t.Fatalf("n=%d: %d/%d cross terms, reference %d/%d", n, len(got.L), len(got.R), len(want.L), len(want.R))
		}
		for j := range want.L {
			if !got.L[j].Equal(&want.L[j]) || !got.R[j].Equal(&want.R[j]) {
				t.Fatalf("n=%d: round %d cross terms differ from the folding reference", n, j)
			}
		}
		if !got.A.Equal(&want.A) {
			t.Fatalf("n=%d: A differs from the folding reference", n)
		}
		if err := s.Verify(transcript.New("ipa-ref"), s.Commit(p), z, poly.Eval(p, z), got); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestFoldWeightsIsBitProduct: after every round, weight i is
// Π_j (bit j of i, counted from the top, ? x_j : x_j^{-1}) — the s vector
// the verifier's bit-flip DP used to build.
func TestFoldWeightsIsBitProduct(t *testing.T) {
	const rounds = 5
	xs := make([]ff.Element, rounds)
	xInvs := make([]ff.Element, rounds)
	for j := range xs {
		xs[j] = ff.Random()
		xInvs[j].Inverse(&xs[j])
	}
	w := make([]ff.Element, 1, 1<<rounds)
	w[0] = ff.One()
	for r := 1; r <= rounds; r++ {
		w = foldWeights(w, &xs[r-1], &xInvs[r-1])
		for i := range w {
			want := ff.One()
			for j := 0; j < r; j++ {
				if i>>(r-1-j)&1 == 1 {
					want.Mul(&want, &xs[j])
				} else {
					want.Mul(&want, &xInvs[j])
				}
			}
			if !w[i].Equal(&want) {
				t.Fatalf("round %d: weight %d wrong", r, i)
			}
		}
	}
}

// TestIPAVerifyRejectsTampering: the one-MSM check rejects every single
// change to an honest opening or its claimed value with ErrVerifyFailed.
func TestIPAVerifyRejectsTampering(t *testing.T) {
	const n = 64
	s := NewIPA(n)
	p := randPoly(n)
	c := s.Commit(p)
	z := ff.Random()
	y := poly.Eval(p, z)
	honest := s.Open(transcript.New("ipa-tamper"), p, z)
	if err := s.Verify(transcript.New("ipa-tamper"), c, z, y, honest); err != nil {
		t.Fatal(err)
	}
	clone := func() *Opening {
		return &Opening{L: append([]curve.Affine(nil), honest.L...), R: append([]curve.Affine(nil), honest.R...), A: honest.A}
	}
	one := ff.One()
	for j := range honest.L {
		for name, tamper := range map[string]func(o *Opening, y *ff.Element){
			"L at infinity": func(o *Opening, _ *ff.Element) { o.L[j] = curve.Infinity() },
			"L, R swapped":  func(o *Opening, _ *ff.Element) { o.L[j], o.R[j] = o.R[j], o.L[j] },
			"L is G_0":      func(o *Opening, _ *ff.Element) { o.L[j] = s.basis[0] },
			"A + 1":         func(o *Opening, _ *ff.Element) { o.A.Add(&o.A, &one) },
			"y + 1":         func(_ *Opening, y *ff.Element) { y.Add(y, &one) },
		} {
			o, yBad := clone(), y
			tamper(o, &yBad)
			err := s.Verify(transcript.New("ipa-tamper"), c, z, yBad, o)
			if !errors.Is(err, zkerrors.ErrVerifyFailed) {
				t.Fatalf("round %d, %s: got %v, want ErrVerifyFailed", j, name, err)
			}
		}
	}
}

// TestIPAOpensZeroPolynomial: the zero polynomial commits to the point at
// infinity, every cross term is at infinity, and the opening still verifies.
func TestIPAOpensZeroPolynomial(t *testing.T) {
	for _, n := range []int{1, 16, 128} {
		s := NewIPA(n)
		p := make([]ff.Element, n)
		c := s.Commit(p)
		if !c.IsZero() {
			t.Fatalf("n=%d: zero polynomial committed to %v", n, c)
		}
		z := ff.Random()
		o := s.Open(transcript.New("ipa-zero"), p, z)
		for j := range o.L {
			if !o.L[j].IsZero() || !o.R[j].IsZero() {
				t.Fatalf("n=%d: round %d cross term not at infinity", n, j)
			}
		}
		if err := s.Verify(transcript.New("ipa-zero"), c, z, ff.Element{}, o); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
