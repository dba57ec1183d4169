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
// dense (phi, z, sigma), signed fixed-point activations of at most 20 bits
// (advice), logUp multiplicities (mostly zero, small counts), and all-zero.
// Every shape but zero ends in a few dense rows, as blinding leaves them.
var columnShapes = []string{"dense", "small", "sparse", "zero"}

func column(shape string, n int) []ff.Element {
	v := make([]ff.Element, n)
	x := uint64(0x9e3779b97f4a7c15) // xorshift64: deterministic, no math/rand
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
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
// the table path and on the generic-MSM fallback.
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
				for _, tables := range []bool{true, false} {
					prev := SetCommitTables(tables)
					got := k.CommitLagrange(evals)
					SetCommitTables(prev)
					if !got.Equal(&want) {
						t.Fatalf("n=%d %s workers=%d tables=%v: CommitLagrange != Commit(IFFT)", n, shape, workers, tables)
					}
				}
			}
		}
	}
}

// TestLagrangeBasisIsPartitionOfUnity checks the derived SRS directly:
// Σ Lᵢ(τ) = 1, so the basis points sum to the generator.
func TestLagrangeBasisIsPartitionOfUnity(t *testing.T) {
	k := NewKZG(64)
	var sum curve.Jac
	for _, p := range k.lagrange(64).basis {
		sum.AddMixed(&p)
	}
	got, g := sum.ToAffine(), curve.Generator()
	if !got.Equal(&g) {
		t.Fatal("Lagrange basis points do not sum to G")
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
