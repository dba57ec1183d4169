package pcs

import (
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// columnShapes are the kinds of column the prover commits from evaluations:
// dense (sigma), signed fixed-point activations of at most 20 bits
// (advice), small negative values, logUp multiplicities (mostly zero, small
// counts), running sums that change on about 2 % of rows (logUp phi), and
// all-zero. Every shape but zero ends in a few dense rows, as blinding
// leaves them.
var columnShapes = []string{"dense", "small", "negative", "sparse", "running", "zero"}

func column(shape string, n int) []ff.Element {
	v := make([]ff.Element, n)
	x := uint64(0x9e3779b97f4a7c15) // xorshift64: deterministic, no math/rand
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var acc ff.Element
	for i := range v {
		switch shape {
		case "dense":
			v[i] = ff.Random()
		case "small":
			v[i] = ff.NewInt64(int64(next()%(1<<20)) - 1<<19)
		case "negative":
			v[i] = ff.NewInt64(-1 - int64(next()%(1<<8)))
		case "sparse":
			if r := next(); r%16 == 0 {
				v[i] = ff.NewElement(1 + (r>>8)%200)
			}
		case "running":
			if next()%50 == 0 {
				step := ff.Random()
				acc.Add(&acc, &step)
			}
			v[i] = acc
		}
	}
	if shape != "zero" {
		for i := max(0, n-5); i < n; i++ {
			v[i] = ff.Random()
		}
	}
	return v
}

// lagrangeOf returns s's Lagrange basis slot for the size-n domain.
func lagrangeOf(s Scheme, n int) *lagrangeBasis {
	switch s := s.(type) {
	case *KZGScheme:
		return s.lagrange(n)
	case *IPAScheme:
		return s.lagrange(n)
	}
	panic("pcs: no Lagrange basis for this scheme")
}

// TestCommitLagrangeMatchesCoefficientCommit pins the tentpole invariant:
// committing a column from its evaluations yields the group element that
// committing its interpolated coefficients does — on both backends, at every
// size from 2^3 to 2^11 (straddling the table's minimum length), for every
// column shape, through the generic MSM of the row differences over the
// suffix basis and on the table path at several worker counts.
func TestCommitLagrangeMatchesCoefficientCommit(t *testing.T) {
	defer parallel.SetWorkers(0)
	if commitTableMinLen != 1<<6 {
		t.Fatalf("commitTableMinLen = %d: pick sizes that straddle it again", commitTableMinLen)
	}
	for _, b := range []Backend{KZG, IPA} {
		for logN := 3; logN <= 11; logN++ {
			n := 1 << logN
			s, err := New(b, n)
			if err != nil {
				t.Fatal(err)
			}
			d := poly.NewDomain(n)
			for _, shape := range columnShapes {
				evals := column(shape, n)
				coeffs := append([]ff.Element(nil), evals...)
				d.IFFT(coeffs)
				want := s.Commit(coeffs)
				if c := curve.MSM(lagrangeOf(s, n).basis, rowDiffs(evals)).ToAffine(); !c.Equal(&want) {
					t.Fatalf("%s n=%d %s: generic MSM over the suffix basis != Commit(IFFT)", b, n, shape)
				}
				for _, workers := range []int{1, 2, 4} {
					parallel.SetWorkers(workers)
					if c := s.CommitLagrange(evals); !c.Equal(&want) {
						t.Fatalf("%s n=%d %s workers=%d: CommitLagrange != Commit(IFFT)", b, n, shape, workers)
					}
				}
			}
		}
	}
}

// TestLagrangeBasisIsSuffixSums checks the derived bases directly: D₀ is
// the first coefficient basis point (the Lagrange polynomials sum to one),
// and Dᵢ − Dᵢ₊₁ is the i-th Lagrange basis point for every i, with Dₙ the
// identity. KZG's is checked against the closed form Lᵢ(τ) = ωⁱ·(τⁿ-1) /
// (n·(τ-ωⁱ)) taken through the generator comb, IPA's group FFT against the
// inverse DFT written out, Λᵢ = MSM(G, n⁻¹·ω^{-ij}).
func TestLagrangeBasisIsSuffixSums(t *testing.T) {
	const n = 64
	d := poly.NewDomain(n)
	omega := d.Elements()
	k := NewKZG(n)
	c := poly.VanishingEval(n, k.tau)
	c.Mul(&c, &d.NInv)
	kzgMu.Lock()
	comb := generatorComb()
	kzgMu.Unlock()
	kzgPoint := func(i int) curve.Affine {
		var li ff.Element
		li.Sub(&k.tau, &omega[i])
		li.Inverse(&li)
		li.Mul(&li, &omega[i])
		li.Mul(&li, &c)
		return comb.mul(&li).ToAffine()
	}
	ipa := NewIPA(n)
	ipaPoint := func(i int) curve.Affine {
		row := make([]ff.Element, n)
		for j := range row {
			row[j].Mul(&d.NInv, &omega[(n-i*j%n)%n])
		}
		return curve.MSM(ipa.basis, row).ToAffine()
	}
	for _, tc := range []struct {
		s     Scheme
		first curve.Affine
		point func(i int) curve.Affine
	}{
		{k, curve.Generator(), kzgPoint},
		{ipa, ipa.basis[0], ipaPoint},
	} {
		basis := lagrangeOf(tc.s, n).basis
		if !basis[0].Equal(&tc.first) {
			t.Fatalf("%s: D₀ is not the first coefficient basis point", tc.s.Backend())
		}
		for i := 0; i < n; i++ {
			want := tc.point(i)
			step := basis[i].ToJac()
			if i+1 < n {
				next := basis[i+1].ToJac()
				next.NegAssign()
				step.AddAssign(&next)
			}
			if got := step.ToAffine(); !got.Equal(&want) {
				t.Fatalf("%s: D%d − D%d is not Lagrange basis point %d", tc.s.Backend(), i, i+1, i)
			}
		}
	}
}

// TestLagrangeFirstUseBuildsOnce races two first commits on a domain size
// no one has used (the daemon runs two proves in flight), on each backend:
// the basis is derived once — n points, counted as that backend's set-up
// work — its table built once, and both results are right. `make race` runs
// it under the detector.
func TestLagrangeFirstUseBuildsOnce(t *testing.T) {
	const n = 1 << 9
	derived := map[Backend]func(SetupWork) int64{
		KZG: func(w SetupWork) int64 { return w.KZGLagrangeDerived },
		IPA: func(w SetupWork) int64 { return w.IPALagrangeDerived },
	}
	for _, b := range []Backend{KZG, IPA} {
		s, err := New(b, n)
		if err != nil {
			t.Fatal(err)
		}
		ResetLagrangeBases() // a fresh first use on every -count repetition

		evals := column("small", n)
		coeffs := append([]ff.Element(nil), evals...)
		poly.NewDomain(n).IFFT(coeffs)
		want := s.Commit(coeffs)

		before := SetupWorkSnapshot()
		var got [2]curve.Affine
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = s.CommitLagrange(evals)
			}(g)
		}
		wg.Wait()
		d := SetupWorkSnapshot().Sub(before)
		if derived[b](d) != n || d.CommitTableBuilds != 1 {
			t.Fatalf("%s: first use derived %d points and built %d tables, want %d and 1", b, derived[b](d), d.CommitTableBuilds, n)
		}
		if d.IsZero() {
			t.Fatalf("%s: a Lagrange derivation must count as set-up work", b)
		}
		for g := range got {
			if !got[g].Equal(&want) {
				t.Fatalf("%s: concurrent first commit %d is wrong", b, g)
			}
		}

		warm := SetupWorkSnapshot()
		s.CommitLagrange(evals)
		if w := SetupWorkSnapshot().Sub(warm); !w.IsZero() || w.CommitTableHits != 1 {
			t.Fatalf("%s: warm Lagrange commit did set-up work or missed the table: %+v", b, w)
		}

		// ResetCommitTables drops the Lagrange table (not the basis, which
		// is setup); the next commit rebuilds it and nothing else.
		ResetCommitTables()
		cold := SetupWorkSnapshot()
		if c := s.CommitLagrange(evals); !c.Equal(&want) {
			t.Fatalf("%s: commit after ResetCommitTables is wrong", b)
		}
		if w := SetupWorkSnapshot().Sub(cold); w.CommitTableBuilds != 1 || derived[b](w) != 0 {
			t.Fatalf("%s: after reset: %+v, want one table build and no derivation", b, w)
		}
	}
}

// BenchmarkCommitLagrange measures KZG's warm commit from evaluations per
// column shape at 2^12 (2^10 under -short): dense is the full-width case;
// small, sparse and running are the advice, multiplicity and accumulator
// columns whose cost follows their non-zero row differences.
func BenchmarkCommitLagrange(b *testing.B) {
	n := 1 << 12
	if testing.Short() {
		n = 1 << 10
	}
	k := NewKZG(n)
	for _, shape := range []string{"dense", "small", "sparse", "running"} {
		evals := column(shape, n)
		b.Run(shape, func(b *testing.B) {
			k.CommitLagrange(evals) // basis and table built outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.CommitLagrange(evals)
			}
		})
	}
}
