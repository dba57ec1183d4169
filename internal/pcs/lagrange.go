package pcs

import (
	"sync"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// Lagrange-basis commitments (DESIGN.md §14). A column the prover holds as
// evaluations v over the size-n domain commits to the same group element
// either way: Commit(IFFT(v)) = Σ coeffⱼ·τʲ·G = Σ vᵢ·Lᵢ(τ)·G. The second
// form feeds the MSM the grid values themselves — fixed-point activations
// of ≤ 20 bits, logUp multiplicities that are mostly zero — where the IFFT
// turns them into dense 254-bit scalars, and the fixed-base kernel's cost
// follows the non-zero window digits it is handed.
//
// The basis held is not Lᵢ(τ)·G but its suffix sums Dᵢ = Σ_{r≥i} L_r(τ)·G,
// so D₀ = G and Dᵢ − Dᵢ₊₁ = Lᵢ(τ)·G, and the MSM takes the row differences
// d₀ = v₀, dᵢ = vᵢ − vᵢ₋₁: Σ dᵢ·Dᵢ = Σ vᵢ·Lᵢ(τ)·G, the same element. A
// running sum (logUp phi, permutation z) is flat wherever its row adds
// nothing, so it pays for the rows where it changes rather than for n; a
// small column's differences stay small, a sparse one's at most double.
//
// Only KZG has this path. The IPA basis is hash-to-curve points with no
// trapdoor, so its Lagrange form is a group FFT of the basis — (n/2)·log n
// full-width scalar multiplications (11 264 at 2^11) of set-up to save a
// fraction of a prove that is two-thirds opening argument.

// kzgLagrange is the suffix-summed Lagrange SRS Dᵢ for one domain size plus
// its commitment table. The basis is derived once and never dropped (it is
// SRS, like the powers); the table follows ResetCommitTables.
type kzgLagrange struct {
	once   sync.Once
	basis  []curve.Affine
	tables commitTableCache
}

var (
	kzgLagrangeMu sync.Mutex
	kzgLagranges  = map[int]*kzgLagrange{} // by domain size
)

// lagrange returns the suffix-summed Lagrange SRS for the size-n domain,
// deriving it on first use. Concurrent first calls derive it exactly once:
// the map lock only publishes the slot, the slot's Once runs the derivation.
func (k *KZGScheme) lagrange(n int) *kzgLagrange {
	kzgLagrangeMu.Lock()
	l := kzgLagranges[n]
	if l == nil {
		l = &kzgLagrange{}
		kzgLagranges[n] = l
	}
	kzgLagrangeMu.Unlock()
	l.once.Do(func() { l.basis = k.deriveLagrange(n) })
	return l
}

// deriveLagrange computes Dᵢ = Σ_{r≥i} L_r(τ)·G for the size-n domain from
// the ceremony stand-in's trapdoor, as the powers are: Lᵢ(τ) = ωⁱ·(τⁿ-1) /
// (n·(τ-ωⁱ)) by one batch inversion, their suffix sums by n field
// additions, then n multiplications through the generator comb. (A real
// ceremony publishes the powers only; a prover would derive Lᵢ(τ)·G from
// them by a group FFT and pay n more group additions for the suffix sums.
// The stand-in has τ and takes the short way to the same points.) τ is a
// fixed hash output, not a root of unity of any supported order, so no
// denominator vanishes.
func (k *KZGScheme) deriveLagrange(n int) []curve.Affine {
	d := poly.NewDomain(n)
	omega := d.Elements()
	scalars := make([]ff.Element, n)
	for i := range scalars {
		scalars[i].Sub(&k.tau, &omega[i])
	}
	ff.BatchInverse(scalars)
	c := poly.VanishingEval(n, k.tau)
	c.Mul(&c, &d.NInv)
	for i := n - 1; i >= 0; i-- {
		scalars[i].Mul(&scalars[i], &omega[i])
		scalars[i].Mul(&scalars[i], &c)
		if i+1 < n {
			scalars[i].Add(&scalars[i], &scalars[i+1])
		}
	}
	kzgMu.Lock()
	comb := generatorComb()
	kzgMu.Unlock()
	jacs := make([]curve.Jac, n)
	parallel.Range(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			jacs[i] = comb.mul(&scalars[i])
		}
	})
	setupWork.kzgLagrangeDerived.Add(int64(n))
	kernelTrace.Load().RecordLagrangeDerive(n)
	return curve.BatchToAffine(jacs)
}

// CommitLagrange commits to the polynomial whose evaluations over the
// size-len(evals) domain are evals; len(evals) must be a power of two within
// the SRS. The result equals Commit of the interpolated coefficients. Like
// Commit it runs on a lazily built fixed-base table — one per domain size —
// and on the generic MSM when the column is short or the table is over
// budget; either way the MSM takes the row differences over the suffix basis.
func (k *KZGScheme) CommitLagrange(evals []ff.Element) curve.Affine {
	if len(evals) > len(k.powers) {
		panic("pcs: column exceeds SRS size")
	}
	l := k.lagrange(len(evals))
	return commitMSM(&l.tables, l.basis, rowDiffs(evals))
}

// rowDiffs returns d₀ = v₀, dᵢ = vᵢ − vᵢ₋₁: the scalars of v over the
// suffix basis.
func rowDiffs(v []ff.Element) []ff.Element {
	d := append([]ff.Element(nil), v...)
	for i := len(d) - 1; i > 0; i-- {
		d[i].Sub(&d[i], &d[i-1])
	}
	return d
}
