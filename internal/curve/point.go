package curve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/ff"
)

// Affine is a point on y^2 = x^3 + 3 in affine coordinates. The zero value
// is the point at infinity.
type Affine struct {
	X, Y Fp
	Inf  bool
}

// Jac is a point in Jacobian coordinates (x = X/Z^2, y = Y/Z^3); Z == 0 is
// the point at infinity. The zero value is the point at infinity.
type Jac struct {
	X, Y, Z Fp
}

// Generator returns the standard BN254 G1 generator (1, 2).
func Generator() Affine {
	return Affine{X: fpFromUint64(1), Y: fpFromUint64(2)}
}

// Infinity returns the point at infinity in affine form.
func Infinity() Affine { return Affine{Inf: true} }

// IsZero reports whether the point is the identity: either the explicit
// infinity flag or the all-zero struct (both encode to the same compressed
// bytes; x = 0 has no curve point, so the zero value is unambiguous).
func (p *Affine) IsZero() bool {
	return p.Inf || (p.X.isZero() && p.Y.isZero())
}

// IsOnCurve reports whether the point satisfies y^2 = x^3 + 3.
func (p *Affine) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	var y2, x3, t Fp
	y2.square(&p.Y)
	t.square(&p.X)
	x3.mul(&t, &p.X)
	three := fpFromUint64(3)
	x3.add(&x3, &three)
	return y2.equal(&x3)
}

// Equal reports whether two affine points are equal.
func (p *Affine) Equal(q *Affine) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.equal(&q.X) && p.Y.equal(&q.Y)
}

// Neg returns -p.
func (p *Affine) Neg() Affine {
	if p.Inf {
		return *p
	}
	out := *p
	out.Y.neg(&p.Y)
	return out
}

// ToJac converts to Jacobian coordinates.
func (p *Affine) ToJac() Jac {
	if p.Inf {
		return Jac{}
	}
	return Jac{X: p.X, Y: p.Y, Z: fpOne()}
}

// IsInf reports whether the Jacobian point is the point at infinity.
func (p Jac) IsInf() bool { return p.Z.isZero() }

// ToAffine converts to affine coordinates (one field inversion).
func (p Jac) ToAffine() Affine {
	if p.IsInf() {
		return Affine{Inf: true}
	}
	var zInv, zInv2, zInv3 Fp
	zInv.inverse(&p.Z)
	zInv2.square(&zInv)
	zInv3.mul(&zInv2, &zInv)
	var out Affine
	out.X.mul(&p.X, &zInv2)
	out.Y.mul(&p.Y, &zInv3)
	return out
}

// BatchToAffine converts many Jacobian points using a single inversion.
func BatchToAffine(pts []Jac) []Affine {
	out := make([]Affine, len(pts))
	// Montgomery batch inversion over Fp, done inline.
	n := len(pts)
	prefix := make([]Fp, n)
	acc := fpOne()
	for i := range pts {
		prefix[i] = acc
		if !pts[i].IsInf() {
			acc.mul(&acc, &pts[i].Z)
		}
	}
	var inv Fp
	inv.inverse(&acc)
	for i := n - 1; i >= 0; i-- {
		if pts[i].IsInf() {
			out[i] = Affine{Inf: true}
			continue
		}
		var zInv, zInv2, zInv3 Fp
		zInv.mul(&inv, &prefix[i])
		inv.mul(&inv, &pts[i].Z)
		zInv2.square(&zInv)
		zInv3.mul(&zInv2, &zInv)
		out[i].X.mul(&pts[i].X, &zInv2)
		out[i].Y.mul(&pts[i].Y, &zInv3)
	}
	return out
}

// Set sets p = q and returns p.
func (p *Jac) Set(q *Jac) *Jac { *p = *q; return p }

// Double sets p = 2p in place (dbl-2009-l, a = 0).
func (p *Jac) Double() *Jac {
	if p.IsInf() {
		return p
	}
	var a, b, c, d, e, f, t Fp
	a.square(&p.X)
	b.square(&p.Y)
	c.square(&b)
	t.add(&p.X, &b)
	t.square(&t)
	t.sub(&t, &a)
	t.sub(&t, &c)
	d.double(&t)
	e.double(&a)
	e.add(&e, &a) // 3a
	f.square(&e)

	var x3, y3, z3 Fp
	x3.sub(&f, &d)
	x3.sub(&x3, &d)
	var c8 Fp
	c8.double(&c)
	c8.double(&c8)
	c8.double(&c8)
	y3.sub(&d, &x3)
	y3.mul(&y3, &e)
	y3.sub(&y3, &c8)
	z3.mul(&p.Y, &p.Z)
	z3.double(&z3)
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// AddAssign sets p = p + q (add-2007-bl).
func (p *Jac) AddAssign(q *Jac) *Jac {
	if q.IsInf() {
		return p
	}
	if p.IsInf() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2 Fp
	z1z1.square(&p.Z)
	z2z2.square(&q.Z)
	u1.mul(&p.X, &z2z2)
	u2.mul(&q.X, &z1z1)
	var t Fp
	t.mul(&q.Z, &z2z2)
	s1.mul(&p.Y, &t)
	t.mul(&p.Z, &z1z1)
	s2.mul(&q.Y, &t)

	var h, r Fp
	h.sub(&u2, &u1)
	r.sub(&s2, &s1)
	if h.isZero() {
		if r.isZero() {
			return p.Double()
		}
		*p = Jac{}
		return p
	}
	r.double(&r)
	var i, j, v Fp
	i.double(&h)
	i.square(&i)
	j.mul(&h, &i)
	v.mul(&u1, &i)

	var x3, y3, z3 Fp
	x3.square(&r)
	x3.sub(&x3, &j)
	x3.sub(&x3, &v)
	x3.sub(&x3, &v)
	y3.sub(&v, &x3)
	y3.mul(&y3, &r)
	var s1j Fp
	s1j.mul(&s1, &j)
	s1j.double(&s1j)
	y3.sub(&y3, &s1j)
	z3.add(&p.Z, &q.Z)
	z3.square(&z3)
	z3.sub(&z3, &z1z1)
	z3.sub(&z3, &z2z2)
	z3.mul(&z3, &h)
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// AddMixed sets p = p + q for affine q (madd-2007-bl).
func (p *Jac) AddMixed(q *Affine) *Jac {
	if q.Inf {
		return p
	}
	if p.IsInf() {
		j := q.ToJac()
		return p.Set(&j)
	}
	var z1z1, u2, s2 Fp
	z1z1.square(&p.Z)
	u2.mul(&q.X, &z1z1)
	var t Fp
	t.mul(&p.Z, &z1z1)
	s2.mul(&q.Y, &t)

	var h, r Fp
	h.sub(&u2, &p.X)
	r.sub(&s2, &p.Y)
	if h.isZero() {
		if r.isZero() {
			return p.Double()
		}
		*p = Jac{}
		return p
	}
	r.double(&r)
	var hh, i, j, v Fp
	hh.square(&h)
	i.double(&hh)
	i.double(&i)
	j.mul(&h, &i)
	v.mul(&p.X, &i)

	var x3, y3, z3 Fp
	x3.square(&r)
	x3.sub(&x3, &j)
	x3.sub(&x3, &v)
	x3.sub(&x3, &v)
	y3.sub(&v, &x3)
	y3.mul(&y3, &r)
	var yj Fp
	yj.mul(&p.Y, &j)
	yj.double(&yj)
	y3.sub(&y3, &yj)
	z3.add(&p.Z, &h)
	z3.square(&z3)
	z3.sub(&z3, &z1z1)
	z3.sub(&z3, &hh)
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// NegAssign sets p = -p.
func (p *Jac) NegAssign() *Jac {
	p.Y.neg(&p.Y)
	return p
}

// ScalarMul returns s*p by Shamir's trick over the GLV split s = k₁ + λ·k₂
// (glv.go): one doubling chain as long as the longer half-scalar (≤ 129
// bits, where a plain ladder walks all 254) adds ±p, ±φ(p) or their sum per
// bit. Not constant-time — the prover's scalars here are either public or
// already committed.
func ScalarMul(p *Affine, s *ff.Element) Jac {
	if p.Inf {
		return Jac{}
	}
	l := s.Limbs()
	sp := split(&l)
	p1, p2 := *p, Phi(p)
	if sp.neg1 {
		p1 = p1.Neg()
	}
	if sp.neg2 {
		p2 = p2.Neg()
	}
	both := p1.ToJac()
	both.AddMixed(&p2)
	var acc Jac
	for i := sp.bits() - 1; i >= 0; i-- {
		acc.Double()
		switch windowDigit(&sp.k1, i, 1)<<1 | windowDigit(&sp.k2, i, 1) {
		case 0b11:
			acc.AddAssign(&both)
		case 0b10:
			acc.AddMixed(&p1)
		case 0b01:
			acc.AddMixed(&p2)
		}
	}
	return acc
}

// scalarMulBinary returns e*p by plain double-and-add over the bits of e.
// The GLV constants are derived with it at init, before ScalarMul can run,
// and the tests use it as ScalarMul's reference.
func scalarMulBinary(p *Affine, e *big.Int) Jac {
	var acc Jac
	pj := p.ToJac()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Double()
		if e.Bit(i) == 1 {
			acc.AddAssign(&pj)
		}
	}
	return acc
}

// Bytes returns a 32-byte compressed encoding: big-endian x with flag bits
// in the top byte (0x40 = infinity, 0x80 = y > p/2).
func (p *Affine) Bytes() [32]byte {
	var out [32]byte
	if p.Inf || (p.X.isZero() && p.Y.isZero()) {
		// The zero value doubles as infinity (x = 0 has no curve point).
		out[0] = 0x40
		return out
	}
	xb := p.X.big().Bytes()
	copy(out[32-len(xb):], xb)
	half := new(big.Int).Rsh(fpMod.Big, 1)
	if p.Y.big().Cmp(half) > 0 {
		out[0] |= 0x80
	}
	return out
}

// SetBytes decodes a compressed encoding produced by Bytes. Decoding is
// strict: every 32-byte string decodes to at most one point and every
// point re-encodes to the same bytes, so serialized points are
// non-malleable (a requirement for Fiat-Shamir transcripts over proof
// bytes). In particular the infinity encoding must be exactly 0x40
// followed by 31 zero bytes.
func (p *Affine) SetBytes(b [32]byte) error {
	if b[0]&0x40 != 0 {
		if b[0] != 0x40 {
			return errors.New("curve: non-canonical infinity flags")
		}
		for _, v := range b[1:] {
			if v != 0 {
				return errors.New("curve: non-canonical infinity encoding")
			}
		}
		*p = Affine{Inf: true}
		return nil
	}
	ySign := b[0]&0x80 != 0
	b[0] &^= 0xC0
	x := new(big.Int).SetBytes(b[:])
	if x.Cmp(fpMod.Big) >= 0 {
		return errors.New("curve: x coordinate out of range")
	}
	p.X = fpFromBig(x)
	p.Inf = false
	// y^2 = x^3 + 3
	var rhs, t Fp
	t.square(&p.X)
	rhs.mul(&t, &p.X)
	three := fpFromUint64(3)
	rhs.add(&rhs, &three)
	if !p.Y.sqrt(&rhs) {
		return errors.New("curve: point not on curve")
	}
	half := new(big.Int).Rsh(fpMod.Big, 1)
	if (p.Y.big().Cmp(half) > 0) != ySign {
		p.Y.neg(&p.Y)
	}
	return nil
}

// HashToCurve maps a domain tag and index to a curve point with unknown
// discrete log (try-and-increment). Used to derive the IPA generator basis.
func HashToCurve(tag string, index int) Affine {
	for ctr := 0; ; ctr++ {
		h := sha256.New()
		h.Write([]byte("zkml-go/htc/"))
		h.Write([]byte(tag))
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[:8], uint64(index))
		binary.BigEndian.PutUint64(buf[8:], uint64(ctr))
		h.Write(buf[:])
		digest := h.Sum(nil)
		x := new(big.Int).SetBytes(digest)
		x.Mod(x, fpMod.Big)
		var p Affine
		p.X = fpFromBig(x)
		var rhs, t Fp
		t.square(&p.X)
		rhs.mul(&t, &p.X)
		three := fpFromUint64(3)
		rhs.add(&rhs, &three)
		if p.Y.sqrt(&rhs) {
			// BN254 G1 has cofactor 1, so any curve point is in the
			// prime-order group.
			if digest[0]&1 == 1 {
				p.Y.neg(&p.Y)
			}
			return p
		}
	}
}

// String renders the point for debugging.
func (p Affine) String() string {
	if p.Inf {
		return "inf"
	}
	return fmt.Sprintf("(%s, %s)", p.X.big(), p.Y.big())
}
