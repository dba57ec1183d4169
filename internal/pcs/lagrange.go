package pcs

import (
	"math/bits"
	"sync"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// Lagrange-basis commitments (DESIGN.md §14). A column the prover holds as
// evaluations v over the size-n domain commits to the same group element
// either way: Commit(IFFT(v)) = Σ coeffⱼ·Bⱼ = Σ vᵢ·Λᵢ, where B is the
// scheme's coefficient basis (KZG's τʲ·G, IPA's hash-to-curve Gⱼ) and
// Λ = IDFT(B) its Lagrange form (for KZG, Λᵢ = Lᵢ(τ)·G). The second form
// feeds the MSM the grid values themselves — fixed-point activations of
// ≤ 20 bits, logUp multiplicities that are mostly zero — where the IFFT
// turns them into dense 254-bit scalars, and the fixed-base kernel's cost
// follows the non-zero window digits it is handed.
//
// The basis held is not Λᵢ but its suffix sums Dᵢ = Σ_{r≥i} Λ_r, so
// D₀ = B₀ and Dᵢ − Dᵢ₊₁ = Λᵢ, and the MSM takes the row differences
// d₀ = v₀, dᵢ = vᵢ − vᵢ₋₁: Σ dᵢ·Dᵢ = Σ vᵢ·Λᵢ, the same element. A running sum
// (logUp phi, permutation z) is flat wherever its row adds nothing, so it
// pays for the rows where it changes rather than for n; a small column's
// differences stay small, a sparse one's at most double.
//
// Each backend's setup record (srs.go) derives the basis once per domain
// size, on first use, and keeps it for the process (it is setup, like the
// coefficient basis); its commit table follows ResetCommitTables. The
// backend supplies the derivation. KZG takes the short way through
// the stand-in trapdoor (n comb multiplications). IPA has no trapdoor, so
// its Λ is a radix-2 group IFFT of the first n hash-to-curve points:
// (n/2)·log n butterflies, of which the ones whose twiddle is 1 need no
// multiplication — 9 217 GLV scalar multiplications at 2^11 — then n
// scalings by n⁻¹ and n additions for the suffix sums. At 2^11 that and
// the table build (≈ 4 MiB) take about 0.7 s on two cores, so keygen pays
// it before it fans out over columns (plonkish.Setup).

// lagrangeBasis is one backend's suffix-summed Lagrange basis Dᵢ for one
// domain size plus its commitment table, held in the backend's setup record
// (srs.go). The basis is derived once and kept until ResetLagrangeBases; the
// table follows ResetCommitTables.
type lagrangeBasis struct {
	once   sync.Once
	basis  []curve.Affine
	tables commitTableCache
}

// ResetLagrangeBases drops every derived Lagrange basis with its table, so
// the next CommitLagrange at each size derives it again. Benchmarks and tests
// use this to measure and check a first use.
func ResetLagrangeBases() {
	for i := range setups {
		for j := range setups[i].lagrange {
			setups[i].lagrange[j].Store(nil)
		}
	}
}

// kzgLagrange computes Dᵢ = Σ_{r≥i} L_r(τ)·G for the size-n domain from
// the ceremony stand-in's trapdoor, as the powers are: Lᵢ(τ) = ωⁱ·(τⁿ-1) /
// (n·(τ-ωⁱ)) by one batch inversion, their suffix sums by n field
// additions, then n multiplications through the generator comb. (A real
// ceremony publishes the powers only; a prover would derive Lᵢ(τ)·G from
// them by a group FFT, as IPA does.) τ is a fixed hash output, not a root of
// unity of any supported order, so no denominator vanishes.
func kzgLagrange(s *setup, basis []curve.Affine) []curve.Affine {
	n, tau := len(basis), kzgTau()
	d := poly.NewDomain(n)
	omega := d.Elements()
	scalars := make([]ff.Element, n)
	for i := range scalars {
		scalars[i].Sub(&tau, &omega[i])
	}
	ff.BatchInverse(scalars)
	c := poly.VanishingEval(n, tau)
	c.Mul(&c, &d.NInv)
	for i := n - 1; i >= 0; i-- {
		scalars[i].Mul(&scalars[i], &omega[i])
		scalars[i].Mul(&scalars[i], &c)
		if i+1 < n {
			scalars[i].Add(&scalars[i], &scalars[i+1])
		}
	}
	s.mu.Lock()
	comb := s.generatorComb()
	s.mu.Unlock()
	setupWork.kzgLagrangeDerived.Add(int64(n))
	kernelTrace.Load().RecordLagrangeDerive(n)
	return comb.mulAll(scalars)
}

// ipaLagrange computes Dᵢ = Σ_{r≥i} Λ_r with Λᵢ = n⁻¹·Σⱼ ω^{-ij}·Gⱼ,
// the inverse DFT of the n basis points g, so that Σᵢ vᵢ·Λᵢ = Σⱼ cⱼ·Gⱼ for
// c = IFFT(v). The transform is the field NTT's schedule (poly.ntt) run on
// points: bit-reverse, then log n stages of independent butterflies a ± w·b,
// split across the worker pool and renormalized to affine after each stage
// so the next stage's multiplications and additions take affine inputs.
func ipaLagrange(_ *setup, g []curve.Affine) []curve.Affine {
	n := len(g)
	d := poly.NewDomain(n)
	omega := d.Elements() // ω^{-k} = omega[n-k]
	pts := append([]curve.Affine(nil), g...)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range pts {
		if j := int(bits.Reverse64(uint64(i)) >> shift); i < j {
			pts[i], pts[j] = pts[j], pts[i]
		}
	}
	jacs := make([]curve.Jac, n)
	for half := 1; half < n; half <<= 1 {
		stride := n / (2 * half)
		parallel.Range(n/2, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				off := t & (half - 1)
				i := (t-off)*2 + off
				var wb curve.Jac
				if off == 0 {
					wb = pts[i+half].ToJac()
				} else {
					wb = curve.ScalarMul(&pts[i+half], &omega[n-off*stride])
				}
				sum := wb
				sum.AddMixed(&pts[i])
				wb.NegAssign()
				wb.AddMixed(&pts[i])
				jacs[i], jacs[i+half] = sum, wb
			}
		})
		pts = curve.BatchToAffine(jacs)
	}
	parallel.Range(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			jacs[i] = curve.ScalarMul(&pts[i], &d.NInv)
		}
	})
	for i := n - 2; i >= 0; i-- {
		jacs[i].AddAssign(&jacs[i+1])
	}
	setupWork.ipaLagrangeDerived.Add(int64(n))
	kernelTrace.Load().RecordLagrangeDerive(n)
	return curve.BatchToAffine(jacs)
}

// rowDiffs writes d₀ = v₀, dᵢ = vᵢ − vᵢ₋₁ — the scalars of v over the
// suffix basis — into d (of v's length) and returns it.
func rowDiffs(d, v []ff.Element) []ff.Element {
	d[0] = v[0]
	for i := 1; i < len(v); i++ {
		d[i].Sub(&v[i], &v[i-1])
	}
	return d
}

// diffScratch holds the per-worker row-difference buffers of CommitLagrange.
var diffScratch parallel.Scratch[ff.Element]
