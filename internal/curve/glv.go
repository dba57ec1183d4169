package curve

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"sync/atomic"

	"repro/internal/ff"
	"repro/internal/limbs"
	"repro/internal/parallel"
)

// GLV scalar decomposition (DESIGN.md §14). BN254 has an efficient
// endomorphism φ(x, y) = (β·x, y) acting on G1 as multiplication by λ,
// where β and λ are primitive cube roots of unity in Fp and Fr. Writing a
// scalar k as k₁ + λ·k₂ with |k₁|, |k₂| ≈ √r turns one 254-bit MSM into a
// double-size MSM over ~129-bit scalars: the bucket-add count is unchanged,
// but the window passes — and with them the bucket reductions and the
// Horner doubling chain — are halved, and the fixed-base table path needs
// half the precomputed windows per basis point.
//
// All constants are derived (and self-checked) at init from the curve
// parameters rather than pasted in, so a mismatch is a startup panic, not a
// silently wrong proof.

// glvHalfBits bounds the bit length of decomposed half-scalars: √r is 127
// bits and the round-to-nearest lattice reduction adds at most a couple of
// bits of slop. Window schedules are sized from this; the decomposition
// paths still re-check the actual maximum and fall back to the generic
// kernel if it is ever exceeded (unreachable unless the derived constants
// are wrong, which init rules out).
const glvHalfBits = 129

// glvShortBits is the fast-path threshold: a scalar k with k or r-k below
// 2^glvShortBits is its own decomposition, (±k, 0) — within the half-scalar
// bound by construction, and with its small digits intact where the lattice
// rounding would spread a negative small value over two ~127-bit halves.
const glvShortBits = 127

// glvRoundShift is the fixed-point precision of the precomputed rounding
// constants: 384 = 256 + 128 bits keeps the truncation error of
// round(k·bᵢ/det) below one for any 254-bit k.
const glvRoundShift = 384

var (
	glvBeta   Fp       // β: primitive cube root of unity in Fp
	glvLambda *big.Int // λ: the matching cube root of unity in Fr

	// Short lattice basis for the kernel of (k₁, k₂) → k₁ + λ·k₂ (mod r):
	// both (a1, b1) and (a2, b2) satisfy aᵢ + λ·bᵢ ≡ 0 (mod r) with entries
	// of ≈ √r size.
	glvA1, glvB1, glvA2, glvB2 *big.Int

	// Fixed-point rounding constants: g1 = round(b2·2^shift / det),
	// g2 = round(-b1·2^shift / det), det = a1·b2 - a2·b1 = ±r.
	glvG1, glvG2 *big.Int
	glvRoundHalf *big.Int // 2^(shift-1)

	glvR [4]uint64 // r as little-endian limbs, for the short-scalar path

	// The same constants in limbs, for split: g1 and g2 (non-negative, at
	// most five limbs) and the lattice basis as sign and two-limb magnitude.
	glvG1L, glvG2L                 [5]uint64
	glvA1L, glvA2L, glvB1L, glvB2L glvLimbs
)

// glvLimbs is a signed lattice-basis entry: |v| in two little-endian limbs.
type glvLimbs struct {
	mag [2]uint64
	neg bool
}

func init() {
	glvDeriveConstants()
	glvSelfCheck()
}

// GLVLambda returns λ, the scalar the endomorphism Phi multiplies by.
func GLVLambda() *big.Int { return new(big.Int).Set(glvLambda) }

// Phi applies the GLV endomorphism φ(x, y) = (β·x, y), which acts on G1 as
// multiplication by λ. One field multiplication — vastly cheaper than the
// scalar multiplication it stands in for.
func Phi(p *Affine) Affine {
	if p.Inf {
		return *p
	}
	out := Affine{Y: p.Y}
	out.X.mul(&glvBeta, &p.X)
	return out
}

// primitiveCubeRoot returns a primitive cube root of unity modulo m
// (requires m ≡ 1 mod 3, true for both BN254 moduli): c^((m-1)/3) for the
// first small c where that power is nontrivial.
func primitiveCubeRoot(m *big.Int) *big.Int {
	e := new(big.Int).Sub(m, big.NewInt(1))
	e.Div(e, big.NewInt(3))
	one := big.NewInt(1)
	for c := int64(2); ; c++ {
		w := new(big.Int).Exp(big.NewInt(c), e, m)
		if w.Cmp(one) != 0 {
			return w
		}
	}
}

// glvDeriveConstants derives β, λ, the lattice basis, and the rounding
// constants from the curve parameters.
func glvDeriveConstants() {
	p := fpMod.Big
	r := ff.Modulus()

	// β and λ each have two nontrivial candidates (w and w²); the pair is
	// fixed by requiring φ(G) = λ·G on the generator.
	wp := primitiveCubeRoot(p)
	wp2 := new(big.Int).Mul(wp, wp)
	wp2.Mod(wp2, p)
	wr := primitiveCubeRoot(r)
	wr2 := new(big.Int).Mul(wr, wr)
	wr2.Mod(wr2, r)

	g := Generator()
	for _, bc := range []*big.Int{wp, wp2} {
		beta := fpFromBig(bc)
		var phiX Fp
		phiX.mul(&beta, &g.X)
		phiG := Affine{X: phiX, Y: g.Y}
		for _, lc := range []*big.Int{wr, wr2} {
			lg := scalarMulBinary(&g, lc).ToAffine()
			if lg.Equal(&phiG) {
				glvBeta = beta
				glvLambda = lc
			}
		}
	}
	if glvLambda == nil {
		panic("curve: no (β, λ) pair satisfies φ(G) = λ·G")
	}

	// Short lattice basis via the extended Euclidean algorithm on (r, λ),
	// stopped at the √r crossing (Gallant–Lambert–Vanstone). The invariant
	// tᵢ·λ ≡ rᵢ (mod r) makes every (rᵢ, -tᵢ) a lattice vector.
	sqrtR := new(big.Int).Sqrt(r)
	r0, r1 := new(big.Int).Set(r), new(big.Int).Set(glvLambda)
	t0, t1 := big.NewInt(0), big.NewInt(1)
	q, tmp := new(big.Int), new(big.Int)
	for r1.Cmp(sqrtR) >= 0 {
		q.Div(r0, r1)
		tmp.Mul(q, r1)
		r0.Sub(r0, tmp)
		r0, r1 = r1, r0
		tmp.Mul(q, t1)
		t0.Sub(t0, tmp)
		t0, t1 = t1, t0
	}
	// Here r1 < √r ≤ r0: (a1, b1) = (r_{l+1}, -t_{l+1}) is the first short
	// vector; the second is the shorter of (r_l, -t_l) and (r_{l+2}, -t_{l+2}).
	glvA1 = new(big.Int).Set(r1)
	glvB1 = new(big.Int).Neg(t1)
	q.Div(r0, r1)
	r2 := new(big.Int).Mul(q, r1)
	r2.Sub(r0, r2)
	t2 := new(big.Int).Mul(q, t1)
	t2.Sub(t0, t2)
	normL := new(big.Int).Mul(r0, r0)
	normL.Add(normL, tmp.Mul(t0, t0))
	normN := new(big.Int).Mul(r2, r2)
	normN.Add(normN, tmp.Mul(t2, t2))
	if normL.Cmp(normN) <= 0 {
		glvA2 = new(big.Int).Set(r0)
		glvB2 = new(big.Int).Neg(t0)
	} else {
		glvA2 = r2
		glvB2 = new(big.Int).Neg(t2)
	}

	// det = a1·b2 - a2·b1 = ±r; normalize to +r so the fixed-point division
	// below rounds against a positive denominator.
	det := new(big.Int).Mul(glvA1, glvB2)
	det.Sub(det, tmp.Mul(glvA2, glvB1))
	if det.Sign() < 0 {
		det.Neg(det)
		glvA2.Neg(glvA2)
		glvB2.Neg(glvB2)
	}
	if det.Cmp(r) != 0 {
		panic("curve: GLV lattice determinant is not ±r")
	}

	roundDiv := func(num *big.Int) *big.Int {
		t := new(big.Int).Lsh(num, glvRoundShift)
		t.Add(t, new(big.Int).Rsh(det, 1))
		return t.Div(t, det) // Euclidean Div floors for det > 0
	}
	glvG1 = roundDiv(glvB2)
	glvG2 = roundDiv(new(big.Int).Neg(glvB1))
	glvRoundHalf = new(big.Int).Lsh(big.NewInt(1), glvRoundShift-1)
	glvR = absLimbs(r)

	glvG1L, glvG2L = roundLimbs(glvG1), roundLimbs(glvG2)
	glvA1L, glvA2L = basisLimbs(glvA1), basisLimbs(glvA2)
	glvB1L, glvB2L = basisLimbs(glvB1), basisLimbs(glvB2)
}

// roundLimbs packs a rounding constant for split, which multiplies it in
// five limbs and so needs it non-negative and below 2^320.
func roundLimbs(g *big.Int) [5]uint64 {
	if g.Sign() < 0 || g.BitLen() > 320 {
		panic("curve: GLV rounding constant outside the limb split's range")
	}
	var b [40]byte
	g.FillBytes(b[:])
	var l [5]uint64
	for i := range l {
		l[i] = binary.BigEndian.Uint64(b[40-8*(i+1) : 40-8*i])
	}
	return l
}

// basisLimbs packs a lattice-basis entry for split, which needs |v| < 2^128.
func basisLimbs(v *big.Int) glvLimbs {
	if v.BitLen() > 128 {
		panic("curve: GLV basis entry outside the limb split's range")
	}
	l := absLimbs(v)
	return glvLimbs{mag: [2]uint64{l[0], l[1]}, neg: v.Sign() < 0}
}

// glvSelfCheck validates the derived constants on adversarial scalars: the
// recombination identity k₁ + λ·k₂ ≡ k (mod r) (exact for any rounding) and
// the half-scalar size bound the window schedules rely on.
func glvSelfCheck() {
	r := ff.Modulus()
	checks := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(r, big.NewInt(1)),
		new(big.Int).Rsh(r, 1),
		new(big.Int).Set(glvLambda),
		new(big.Int).Sub(r, glvLambda),
	}
	for i := 0; i < 8; i++ {
		k := new(big.Int).Exp(big.NewInt(int64(i+3)), big.NewInt(200), r)
		checks = append(checks, k)
	}
	var sc glvScratch
	k1, k2 := new(big.Int), new(big.Int)
	got := new(big.Int)
	for _, k := range checks {
		sc.decompose(k, k1, k2)
		l := absLimbs(k)
		if sp := lattice(&l); !sp.equals(k1, k2) {
			panic("curve: GLV limb split differs from the reference reduction")
		}
		got.Mul(glvLambda, k2)
		got.Add(got, k1)
		got.Mod(got, r)
		if got.Cmp(k) != 0 {
			panic("curve: GLV decomposition does not recombine to k")
		}
		if k1.BitLen() > glvHalfBits || k2.BitLen() > glvHalfBits {
			panic("curve: GLV half-scalar exceeds the size bound")
		}
	}
}

// glvScratch holds the big.Int temporaries of decompose.
type glvScratch struct {
	c1, c2, t big.Int
}

// decompose writes the lattice reduction of k into k1, k2: k₁ + λ·k₂ ≡ k
// (mod r). c₁, c₂ = round(k·bᵢ/det) computed with the precomputed
// fixed-point constants; the identity holds exactly for any c₁, c₂ (they
// cancel lattice vectors), rounding only controls the result's size. This
// is the math/big reference that lattice, the kernels' limb reduction, is
// checked against at init and in the tests.
func (sc *glvScratch) decompose(k, k1, k2 *big.Int) {
	c1 := &sc.c1
	c1.Mul(k, glvG1)
	c1.Add(c1, glvRoundHalf)
	c1.Rsh(c1, glvRoundShift) // arithmetic shift: floor for either sign
	c2 := &sc.c2
	c2.Mul(k, glvG2)
	c2.Add(c2, glvRoundHalf)
	c2.Rsh(c2, glvRoundShift)

	t := &sc.t
	k1.Mul(c1, glvA1)
	t.Mul(c2, glvA2)
	k1.Add(k1, t)
	k1.Sub(k, k1)
	k2.Mul(c1, glvB1)
	t.Mul(c2, glvB2)
	k2.Add(k2, t)
	k2.Neg(k2)
}

// glvSplit is one decomposed scalar: |k₁|, |k₂| as little-endian limbs plus
// their signs, ready for signed-digit recoding.
type glvSplit struct {
	k1, k2     [4]uint64
	neg1, neg2 bool
}

// bits returns the larger half-scalar bit length.
func (s *glvSplit) bits() int {
	return max(limbsBitLen(&s.k1), limbsBitLen(&s.k2))
}

// limbsBitLen returns the bit length of a little-endian limb vector.
func limbsBitLen(l *[4]uint64) int {
	for i := 3; i >= 0; i-- {
		if l[i] != 0 {
			return 64*i + bits.Len64(l[i])
		}
	}
	return 0
}

// isShort reports whether l < 2^glvShortBits.
func isShort(l *[4]uint64) bool {
	return l[3] == 0 && l[2] == 0 && l[1]>>(glvShortBits-64) == 0
}

// split decomposes the canonical scalar l (little-endian limbs, l < r).
// Short scalars — zero, small positive values, and small negative values
// stored as r-|v|, which is what circuit columns mostly hold — are emitted
// as (±l, 0) straight from the limbs; everything else goes through the
// lattice reduction.
func split(l *[4]uint64) glvSplit {
	if isShort(l) {
		return glvSplit{k1: *l}
	}
	var n [4]uint64
	var b uint64
	n[0], b = bits.Sub64(glvR[0], l[0], 0)
	n[1], b = bits.Sub64(glvR[1], l[1], b)
	n[2], b = bits.Sub64(glvR[2], l[2], b)
	n[3], _ = bits.Sub64(glvR[3], l[3], b)
	if isShort(&n) {
		return glvSplit{k1: n, neg1: true}
	}
	return lattice(l)
}

// lattice is decompose in 64-bit limbs, giving the same (k₁, k₂) for any
// k < 2^256: c₁ and c₂ are the same fixed-point roundings, from full
// products against the five-limb constants, and the rest is computed mod
// 2^256 in two's complement. That is exact because |k₁| and |k₂| are below
// 2^129 (glvHalfBits), far from 2^255, whatever the intermediate terms.
func lattice(k *[4]uint64) glvSplit {
	c1, c2 := roundedQuotient(k, &glvG1L), roundedQuotient(k, &glvG2L)
	k1 := sub256(*k, add256(basisTerm(&c1, &glvA1L), basisTerm(&c2, &glvA2L)))
	k2 := neg256(add256(basisTerm(&c1, &glvB1L), basisTerm(&c2, &glvB2L)))
	var s glvSplit
	s.k1, s.neg1 = abs256(k1)
	s.k2, s.neg2 = abs256(k2)
	return s
}

// roundedQuotient returns (k·g + 2^383) >> 384, decompose's round(k·g/2^384)
// for non-negative g, as four limbs (the top one zero).
func roundedQuotient(k *[4]uint64, g *[5]uint64) [4]uint64 {
	var p [9]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 5; j++ {
			hi, lo := bits.Mul64(k[i], g[j])
			var c uint64
			lo, c = bits.Add64(lo, p[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			p[i+j], carry = lo, hi
		}
		p[i+5] = carry
	}
	var c uint64
	_, c = bits.Add64(p[5], 1<<63, 0)
	p[6], c = bits.Add64(p[6], 0, c)
	p[7], c = bits.Add64(p[7], 0, c)
	p[8] += c
	return [4]uint64{p[6], p[7], p[8], 0}
}

// basisTerm returns c·v mod 2^256 for a non-negative c and a signed basis
// entry v.
func basisTerm(c *[4]uint64, v *glvLimbs) [4]uint64 {
	var r [4]uint64
	for j := 0; j < 2; j++ {
		var carry uint64
		for i := 0; i+j < 4; i++ {
			hi, lo := bits.Mul64(c[i], v.mag[j])
			var cc uint64
			lo, cc = bits.Add64(lo, r[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, carry, 0)
			hi += cc
			r[i+j], carry = lo, hi
		}
	}
	if v.neg {
		return neg256(r)
	}
	return r
}

func add256(x, y [4]uint64) [4]uint64 {
	var c uint64
	x[0], c = bits.Add64(x[0], y[0], 0)
	x[1], c = bits.Add64(x[1], y[1], c)
	x[2], c = bits.Add64(x[2], y[2], c)
	x[3], _ = bits.Add64(x[3], y[3], c)
	return x
}

func sub256(x, y [4]uint64) [4]uint64 {
	var b uint64
	x[0], b = bits.Sub64(x[0], y[0], 0)
	x[1], b = bits.Sub64(x[1], y[1], b)
	x[2], b = bits.Sub64(x[2], y[2], b)
	x[3], _ = bits.Sub64(x[3], y[3], b)
	return x
}

func neg256(x [4]uint64) [4]uint64 { return sub256([4]uint64{}, x) }

// abs256 reads x as a two's-complement value and returns its magnitude and
// sign.
func abs256(x [4]uint64) ([4]uint64, bool) {
	if x[3]>>63 == 0 {
		return x, false
	}
	return neg256(x), true
}

// equals reports whether s holds the signed halves k1, k2.
func (s *glvSplit) equals(k1, k2 *big.Int) bool {
	return s.neg1 == (k1.Sign() < 0) && s.k1 == absLimbs(k1) &&
		s.neg2 == (k2.Sign() < 0) && s.k2 == absLimbs(k2)
}

// GLVDecompose splits a scalar into (k₁, k₂) with k₁ + λ·k₂ ≡ k (mod r) and
// |k₁|, |k₂| < 2^129, exactly as the kernels do (short-scalar path
// included). Exported for tests and the fuzz target.
func GLVDecompose(s *ff.Element) (k1, k2 *big.Int) {
	l := s.Limbs()
	sp := split(&l)
	signed := func(l *[4]uint64, neg bool) *big.Int {
		v := limbs.ToBig(l)
		if neg {
			v.Neg(v)
		}
		return v
	}
	return signed(&sp.k1, sp.neg1), signed(&sp.k2, sp.neg2)
}

// absLimbs returns |v| as little-endian 64-bit limbs. Word-size-independent
// (big.Int.Bits would need per-platform reassembly on 32-bit hosts).
func absLimbs(v *big.Int) [4]uint64 {
	var b [32]byte
	v.FillBytes(b[:]) // absolute value, zero-extended big-endian
	var l [4]uint64
	for i := 0; i < 4; i++ {
		l[i] = binary.BigEndian.Uint64(b[32-8*(i+1) : 32-8*i])
	}
	return l
}

// splitScratch holds the per-worker scalar-split buffers of the GLV MSM
// kernels (msmGLV and FixedBaseTable.MSM).
var splitScratch parallel.Scratch[glvSplit]

// glvDecomposeAll decomposes every scalar into splits and returns the
// maximum half-scalar bit length (0 when every scalar is zero mod r).
func glvDecomposeAll(scalars []ff.Element, splits []glvSplit) int {
	var maxBits atomic.Int32
	chunk := func(lo, hi int) {
		mb := 0
		for i := lo; i < hi; i++ {
			l := scalars[i].Limbs()
			splits[i] = split(&l)
			mb = max(mb, splits[i].bits())
		}
		for {
			cur := maxBits.Load()
			if int32(mb) <= cur || maxBits.CompareAndSwap(cur, int32(mb)) {
				break
			}
		}
	}
	if len(scalars) >= msmParallelMin && parallel.Workers() > 1 {
		parallel.Range(len(scalars), chunk)
	} else {
		chunk(0, len(scalars))
	}
	return int(maxBits.Load())
}

// recodeSigned is recodeRow for the half-scalar ±l: a negative half's
// digits are negated, so its sign rides on the digits, not the point.
func recodeSigned(l *[4]uint64, neg bool, row []int32, c int) {
	recodeRow(l, row, c)
	if neg {
		for w := range row {
			row[w] = -row[w]
		}
	}
}

// msmGLV is the GLV variable-base MSM: decompose every scalar, expand to 2n
// points (each point and its φ-image; the split's signs ride on the
// digits), and run the same signed-window
// bucket machinery over half-length scalars — half the window passes,
// bucket reductions, and Horner doublings of the plain kernel.
func msmGLV(points []Affine, scalars []ff.Element) Jac {
	n := len(points)
	buf := splitScratch.Get(n)
	defer splitScratch.Put(buf)
	splits := *buf
	maxBits := glvDecomposeAll(scalars, splits)
	if maxBits > glvHalfBits {
		// Unreachable with self-checked constants; never compute a wrong
		// answer over it.
		return msmPlain(points, scalars)
	}
	if maxBits == 0 {
		return Jac{}
	}
	kernelTrace.Load().RecordGLVSplit(n)
	c := windowSize(2 * n)
	// nw·c ≥ maxBits+1, so the top signed digit absorbs its carry.
	nw := maxBits/c + 1

	pts2 := make([]Affine, 2*n)
	digits := make([]int32, 2*n*nw)
	expand := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pts2[2*i] = points[i]
			pts2[2*i+1] = Phi(&points[i])
			recodeSigned(&splits[i].k1, splits[i].neg1, digits[(2*i)*nw:(2*i+1)*nw], c)
			recodeSigned(&splits[i].k2, splits[i].neg2, digits[(2*i+1)*nw:(2*i+2)*nw], c)
		}
	}
	if n >= msmParallelMin && parallel.Workers() > 1 {
		parallel.Range(n, expand)
	} else {
		expand(0, n)
	}

	return windowedSum(pts2, digits, c, nw, n >= msmParallelMin)
}
