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
// (advice), logUp multiplicities (mostly zero, small counts), running sums
// that change on about 2 % of rows (logUp phi), and all-zero. Every shape but zero ends in a few dense rows, as blinding
// leaves them.
var columnShapes = []string{"dense", "small", "sparse", "running", "zero"}

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

// TestCommitLagrangeMatchesCoefficientCommit pins the tentpole invariant:
// committing a column from its evaluations yields the group element that
// committing its interpolated coefficients does — for every column shape,
// below and above the table's minimum length, at several worker counts, on
// the table path and through the generic MSM of the row differences over
// the suffix basis.
func TestCommitLagrangeMatchesCoefficientCommit(t *testing.T) {
	defer parallel.SetWorkers(0)
	if commitTableMinLen != 1<<6 {
		t.Fatalf("commitTableMinLen = %d: pick sizes that straddle it again", commitTableMinLen)
	}
	for _, n := range []int{1 << 5, 1 << 6, 1 << 10, 1 << 12} {
		k := NewKZG(n)
		d := poly.NewDomain(n)
		for _, shape := range columnShapes {
			evals := column(shape, n)
			coeffs := append([]ff.Element(nil), evals...)
			d.IFFT(coeffs)
			want := k.Commit(coeffs)
			for _, workers := range []int{1, 2, 4} {
				parallel.SetWorkers(workers)
				got := map[string]curve.Affine{
					"table":       k.CommitLagrange(evals),
					"generic MSM": curve.MSM(k.lagrange(n).basis, rowDiffs(evals)).ToAffine(),
				}
				for path, c := range got {
					if !c.Equal(&want) {
						t.Fatalf("n=%d %s workers=%d %s: Lagrange commitment != Commit(IFFT)", n, shape, workers, path)
					}
				}
			}
		}
	}
}

// TestLagrangeBasisIsSuffixSums checks the derived SRS directly against the
// closed form Lᵢ(τ) = ωⁱ·(τⁿ-1) / (n·(τ-ωⁱ)) taken through the generator
// comb: D₀ = G (the Lᵢ(τ) sum to one), and Dᵢ − Dᵢ₊₁ = Lᵢ(τ)·G for every i,
// with Dₙ the identity.
func TestLagrangeBasisIsSuffixSums(t *testing.T) {
	const n = 64
	k := NewKZG(n)
	basis := k.lagrange(n).basis
	if g := curve.Generator(); !basis[0].Equal(&g) {
		t.Fatal("D₀ != G")
	}
	d := poly.NewDomain(n)
	omega := d.Elements()
	c := poly.VanishingEval(n, k.tau)
	c.Mul(&c, &d.NInv)
	kzgMu.Lock()
	comb := generatorComb()
	kzgMu.Unlock()
	for i := 0; i < n; i++ {
		var li ff.Element
		li.Sub(&k.tau, &omega[i])
		li.Inverse(&li)
		li.Mul(&li, &omega[i])
		li.Mul(&li, &c)
		want := comb.mul(&li).ToAffine()
		step := basis[i].ToJac()
		if i+1 < n {
			next := basis[i+1].ToJac()
			next.NegAssign()
			step.AddAssign(&next)
		}
		if got := step.ToAffine(); !got.Equal(&want) {
			t.Fatalf("D%d − D%d != L%d(τ)·G", i, i+1, i)
		}
	}
}

// TestLagrangeFirstUseBuildsOnce races two first commits on a domain size
// no one has used (the daemon runs two proves in flight): the basis is
// derived once, its table built once, and both results are right. `make
// race` runs it under the detector.
func TestLagrangeFirstUseBuildsOnce(t *testing.T) {
	const n = 1 << 9
	k := NewKZG(n)
	kzgLagrangeMu.Lock()
	delete(kzgLagranges, n) // a fresh first use on every -count repetition
	kzgLagrangeMu.Unlock()

	evals := column("small", n)
	coeffs := append([]ff.Element(nil), evals...)
	poly.NewDomain(n).IFFT(coeffs)
	want := k.Commit(coeffs)

	before := SetupWorkSnapshot()
	var got [2]curve.Affine
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = k.CommitLagrange(evals)
		}(g)
	}
	wg.Wait()
	d := SetupWorkSnapshot().Sub(before)
	if d.KZGLagrangeDerived != n || d.CommitTableBuilds != 1 {
		t.Fatalf("first use derived %d points and built %d tables, want %d and 1", d.KZGLagrangeDerived, d.CommitTableBuilds, n)
	}
	if d.IsZero() {
		t.Fatal("a Lagrange derivation must count as set-up work")
	}
	for g := range got {
		if !got[g].Equal(&want) {
			t.Fatalf("concurrent first commit %d is wrong", g)
		}
	}

	warm := SetupWorkSnapshot()
	k.CommitLagrange(evals)
	if w := SetupWorkSnapshot().Sub(warm); !w.IsZero() || w.CommitTableHits != 1 {
		t.Fatalf("warm Lagrange commit did set-up work or missed the table: %+v", w)
	}

	// ResetCommitTables drops the Lagrange table (not the basis, which is
	// SRS); the next commit rebuilds it and nothing else.
	ResetCommitTables()
	cold := SetupWorkSnapshot()
	if c := k.CommitLagrange(evals); !c.Equal(&want) {
		t.Fatal("commit after ResetCommitTables is wrong")
	}
	if w := SetupWorkSnapshot().Sub(cold); w.CommitTableBuilds != 1 || w.KZGLagrangeDerived != 0 {
		t.Fatalf("after reset: %+v, want one table build and no derivation", w)
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
