// Package curve implements the BN254 G1 group used by both polynomial
// commitment backends: Jacobian point arithmetic, scalar multiplication,
// Pippenger multi-scalar multiplication (the MSM cost in the paper's cost
// model), and deterministic hash-to-curve for the IPA generator basis.
package curve

import (
	"math/big"

	"repro/internal/ff"
	"repro/internal/limbs"
)

// FpModulusDec is the BN254 base field modulus p in decimal.
const FpModulusDec = "21888242871839275222246405745257275088696311157297823662689037894645226208583"

var fpMod = limbs.NewModulus(FpModulusDec)

// Fp is a base-field element in Montgomery form.
type Fp struct {
	l limbs.Limbs
}

func fpFromUint64(v uint64) Fp {
	var e Fp
	e.l = limbs.Limbs{v}
	fpMod.MontMul(&e.l, &e.l, &fpMod.R2)
	return e
}

func fpFromBig(v *big.Int) Fp {
	var e Fp
	e.l = fpMod.FromBig(v)
	fpMod.MontMul(&e.l, &e.l, &fpMod.R2)
	return e
}

func (z *Fp) big() *big.Int {
	var out limbs.Limbs
	one := limbs.Limbs{1}
	fpMod.MontMul(&out, &z.l, &one)
	return limbs.ToBig(&out)
}

func (z *Fp) add(x, y *Fp) *Fp  { fpMod.Add(&z.l, &x.l, &y.l); return z }
func (z *Fp) sub(x, y *Fp) *Fp  { fpMod.Sub(&z.l, &x.l, &y.l); return z }
func (z *Fp) mul(x, y *Fp) *Fp  { fpMod.MontMul(&z.l, &x.l, &y.l); return z }
func (z *Fp) square(x *Fp) *Fp  { fpMod.MontSquare(&z.l, &x.l); return z }
func (z *Fp) double(x *Fp) *Fp  { fpMod.Double(&z.l, &x.l); return z }
func (z *Fp) neg(x *Fp) *Fp     { fpMod.Neg(&z.l, &x.l); return z }
func (z *Fp) inverse(x *Fp) *Fp { fpMod.Inverse(&z.l, &x.l); return z }
func (z *Fp) isZero() bool      { return limbs.IsZero(&z.l) }
func (z *Fp) equal(x *Fp) bool  { return limbs.Equal(&z.l, &x.l) }
func fpOne() Fp                 { return Fp{l: fpMod.R} }

// fpSqrtExp is (p+1)/4: p ≡ 3 mod 4 for BN254, so x^((p+1)/4) is a square
// root of x whenever one exists.
var fpSqrtExp = new(big.Int).Rsh(new(big.Int).Add(fpMod.Big, big.NewInt(1)), 2)

// sqrt computes a square root of x if one exists — the same root
// big.Int.ModSqrt returns — in Montgomery form, without leaving it. It runs
// on every decompressed point (proofs, SRS powers, commitments) and in
// hash-to-curve; the candidate is squared back because a non-residue also
// has an x^((p+1)/4), just not a root.
func (z *Fp) sqrt(x *Fp) bool {
	var r, sq Fp
	fpMod.Exp(&r.l, &x.l, fpSqrtExp)
	if !sq.square(&r).equal(x) {
		return false
	}
	*z = r
	return true
}

// scalarToBig converts an Fr scalar to its canonical integer.
func scalarToBig(s *ff.Element) *big.Int { return s.BigInt() }
