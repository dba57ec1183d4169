package curve

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// edgeScalars are the recoding stress cases: 0, 1, r-1 (signed digits
// almost all negative), λ and r-λ (decompose to a pure second half), and a
// mid-range value.
func edgeScalars() []ff.Element {
	r := ff.Modulus()
	out := []ff.Element{ff.Zero(), ff.One()}
	for _, v := range []*big.Int{
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Rsh(r, 1),
		GLVLambda(),
		new(big.Int).Sub(r, GLVLambda()),
	} {
		var e ff.Element
		e.SetBigInt(v)
		out = append(out, e)
	}
	return out
}

// shortEdgeScalars straddle the short-scalar threshold on both signs: ±1,
// ±(2^20-1) (a fixed-point activation), ±(2^127-1) (the largest short
// magnitude) and ±2^127 (the smallest that takes the lattice path).
func shortEdgeScalars() []ff.Element {
	r := ff.Modulus()
	var out []ff.Element
	for _, v := range []*big.Int{
		big.NewInt(1),
		big.NewInt(1<<20 - 1),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), glvShortBits), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), glvShortBits),
	} {
		var e, neg ff.Element
		e.SetBigInt(v)
		neg.SetBigInt(new(big.Int).Sub(r, v))
		out = append(out, e, neg)
	}
	return out
}

// checkDecompose asserts what the MSM kernels rely on for one scalar: the
// identity k₁ + λ·k₂ ≡ k (mod r), the half-scalar size bound, that a scalar
// with k or r-k below 2^glvShortBits takes the limb-only path (k₂ = 0,
// |k₁| = that magnitude), and that the kernels' split names the same group
// element as the lattice reduction, which it bypasses for short scalars.
func checkDecompose(t *testing.T, s *ff.Element) {
	t.Helper()
	r := ff.Modulus()
	lambda := GLVLambda()
	k := s.BigInt()
	k1, k2 := GLVDecompose(s)
	got := new(big.Int).Mul(lambda, k2)
	got.Add(got, k1)
	got.Mod(got, r)
	if got.Cmp(k) != 0 {
		t.Fatalf("k=%v: k1 + λ·k2 = %v", k, got)
	}
	if k1.BitLen() > glvHalfBits || k2.BitLen() > glvHalfBits {
		t.Fatalf("k=%v: half-scalar sizes %d/%d exceed %d bits", k, k1.BitLen(), k2.BitLen(), glvHalfBits)
	}
	negK := new(big.Int).Sub(r, k)
	if short := k.BitLen() <= glvShortBits || negK.BitLen() <= glvShortBits; short {
		want := k
		if k.BitLen() > glvShortBits {
			want = negK.Neg(negK)
		}
		if k2.Sign() != 0 || k1.Cmp(want) != 0 {
			t.Fatalf("k=%v: short scalar decomposed to (%v, %v), want (%v, 0)", k, k1, k2, want)
		}
	}

	var sc glvScratch
	l1, l2 := new(big.Int), new(big.Int)
	sc.decompose(k, l1, l2)
	kl := absLimbs(k)
	if sp := lattice(&kl); !sp.equals(l1, l2) {
		t.Fatalf("k=%v: limb lattice reduction differs from the math/big reference (%v, %v)", k, l1, l2)
	}
	g := Generator()
	phiG := Phi(&g)
	combine := func(a, b *big.Int) Affine {
		p := scalarMulBinary(&g, new(big.Int).Mod(a, r))
		q := scalarMulBinary(&phiG, new(big.Int).Mod(b, r))
		p.AddAssign(&q)
		return p.ToAffine()
	}
	fast, lattice := combine(k1, k2), combine(l1, l2)
	if !fast.Equal(&lattice) {
		t.Fatalf("k=%v: split and lattice reduction name different group elements", k)
	}
}

func TestGLVDecomposeIdentity(t *testing.T) {
	scalars := append(edgeScalars(), shortEdgeScalars()...)
	for i := 0; i < 64; i++ {
		scalars = append(scalars, ff.Random())
	}
	for i := range scalars {
		checkDecompose(t, &scalars[i])
	}
}

// TestGLVLatticeMatchesReference holds the limb lattice reduction to the
// math/big one, exactly, on 0, 1, r−1, λ, r−λ, ±2^127, all-ones (2^256 − 1,
// above r, and its value mod r) and random values below 2^256.
func TestGLVLatticeMatchesReference(t *testing.T) {
	r := ff.Modulus()
	p127 := new(big.Int).Lsh(big.NewInt(1), 127)
	ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))
	ks := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(r, big.NewInt(1)),
		GLVLambda(),
		new(big.Int).Sub(r, GLVLambda()),
		p127,
		new(big.Int).Sub(r, p127),
		ones,
		new(big.Int).Mod(ones, r),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		ks = append(ks, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 256)))
	}
	var sc glvScratch
	k1, k2 := new(big.Int), new(big.Int)
	for _, k := range ks {
		sc.decompose(k, k1, k2)
		l := absLimbs(k)
		if sp := lattice(&l); !sp.equals(k1, k2) {
			t.Errorf("k=%v: limb reduction (%v %v, %v %v), reference (%v, %v)", k, sp.neg1, sp.k1, sp.neg2, sp.k2, k1, k2)
		}
	}
}

func TestPhiActsAsLambda(t *testing.T) {
	g := Generator()
	lambda := GLVLambda()
	for i := 0; i < 8; i++ {
		k := ff.Random()
		p := ScalarMul(&g, &k).ToAffine()
		phi := Phi(&p)
		want := scalarMulBinary(&p, lambda).ToAffine()
		if !phi.Equal(&want) {
			t.Fatalf("φ(P) != λ·P at sample %d", i)
		}
		if !phi.IsOnCurve() {
			t.Fatalf("φ(P) off curve at sample %d", i)
		}
	}
	inf := Infinity()
	if p := Phi(&inf); !p.IsZero() {
		t.Fatal("φ(∞) != ∞")
	}
}

// TestMSMGLVMatchesPlain pins the tentpole determinism property at the
// kernel level: the GLV path computes the same group element as the plain
// signed-window kernel, across sizes straddling every dispatch threshold
// and with edge scalars and duplicate points mixed in.
func TestMSMGLVMatchesPlain(t *testing.T) {
	g := Generator()
	edges := edgeScalars()
	for _, n := range []int{8, 31, 255, 256, 300, 1024} {
		pts := make([]Affine, n)
		scs := make([]ff.Element, n)
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				pts[i] = g // duplicates
			} else {
				k := ff.NewElement(uint64(i%11 + 2))
				pts[i] = ScalarMul(&g, &k).ToAffine()
			}
			if i < len(edges) {
				scs[i] = edges[i]
			} else {
				scs[i] = ff.Random()
			}
		}
		plain, glv := msmPlain(pts, scs), MSM(pts, scs)
		a, b := plain.ToAffine(), glv.ToAffine()
		if !a.Equal(&b) {
			t.Fatalf("GLV MSM differs from plain kernel at n=%d", n)
		}
	}
}

func TestFixedBaseWindowsBounds(t *testing.T) {
	for _, n := range []int{1, 64, 1 << 10, 1 << 12, 1 << 16} {
		c, nw := FixedBaseWindows(n)
		if c < 2 || c > 16 {
			t.Fatalf("n=%d: window width %d out of range", n, c)
		}
		if fixedBaseEntryBytes<<uint(c-1) > maxBucketBytes {
			t.Fatalf("n=%d: width %d exceeds the bucket memory budget", n, c)
		}
		// nw·c ≥ glvHalfBits+1 so the top signed digit absorbs its carry.
		if nw*c < glvHalfBits+1 {
			t.Fatalf("n=%d: schedule %d windows × %d bits cannot hold %d-bit halves",
				n, nw, c, glvHalfBits)
		}
	}
}

// TestFixedBaseTableMatchesMSM cross-checks the table path against the
// plain reference kernel: full-length and prefix MSMs, edge scalars,
// duplicates via small multiples, and byte-identical results at every
// worker count.
func TestFixedBaseTableMatchesMSM(t *testing.T) {
	g := Generator()
	const n = 600
	basis := make([]Affine, n)
	jacs := make([]Jac, n)
	var acc Jac
	for i := range jacs {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	copy(basis, BatchToAffine(jacs))
	tab := NewFixedBaseTable(basis)
	if tab == nil {
		t.Fatal("table build declined within budget")
	}
	if tab.Len() != n {
		t.Fatalf("table covers %d points, want %d", tab.Len(), n)
	}

	edges := edgeScalars()
	scs := make([]ff.Element, n)
	for i := range scs {
		if i < len(edges) {
			scs[i] = edges[i]
		} else {
			scs[i] = ff.Random()
		}
	}
	for _, m := range []int{1, 7, 63, 255, 256, n} {
		want := msmPlain(basis[:m], scs[:m]).ToAffine()
		got := tab.MSM(scs[:m]).ToAffine()
		if !got.Equal(&want) {
			t.Fatalf("fixed-base MSM differs from plain kernel at m=%d", m)
		}
	}

	// Byte-identical across worker counts (the partial sums are exact group
	// elements merged in index order).
	refA := tab.MSM(scs).ToAffine()
	ref := refA.Bytes()
	for _, w := range []int{1, 2, 3, 8} {
		parallel.SetWorkers(w)
		gotA := tab.MSM(scs).ToAffine()
		got := gotA.Bytes()
		parallel.SetWorkers(0)
		if got != ref {
			t.Fatalf("fixed-base MSM bytes differ at %d workers", w)
		}
	}
}

func TestFixedBaseTableBudget(t *testing.T) {
	// The budget check runs before any point arithmetic, so a huge basis of
	// zero-value (infinity) points is enough to exercise the decline path.
	huge := make([]Affine, 1<<18)
	if tab := NewFixedBaseTable(huge); tab != nil {
		t.Fatal("table over the memory budget was not declined")
	}
	if tab := NewFixedBaseTable(nil); tab != nil {
		t.Fatal("empty basis should not build a table")
	}
}

func TestFixedBaseMSMRecordsCounters(t *testing.T) {
	g := Generator()
	const n = 64
	basis := make([]Affine, n)
	jacs := make([]Jac, n)
	var acc Jac
	for i := range jacs {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	copy(basis, BatchToAffine(jacs))
	tab := NewFixedBaseTable(basis)
	if tab == nil {
		t.Fatal("table build declined")
	}
	scs := make([]ff.Element, n)
	for i := range scs {
		scs[i] = ff.Random()
	}
	k := &obs.KernelCounters{}
	prev := SetKernelTrace(k)
	tab.MSM(scs)
	SetKernelTrace(prev)
	var msms, fixed int64
	for i := range k.MSM {
		msms += k.MSM[i].Load()
		fixed += k.FixedMSM[i].Load()
	}
	if msms != 1 || fixed != 1 {
		t.Fatalf("counters msm=%d fixed=%d, want 1/1", msms, fixed)
	}
	if k.GLVSplits.Load() != n {
		t.Fatalf("glv splits %d, want %d", k.GLVSplits.Load(), n)
	}
}
