// Package limbs implements 4×64-bit Montgomery modular arithmetic shared by
// the scalar field (Fr) and the curve base field (Fp). A Modulus carries the
// precomputed Montgomery constants; all constants are derived at
// construction time from the decimal modulus string, so no magic hex
// constants appear in the field packages.
package limbs

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Limbs is a 256-bit little-endian limb vector.
type Limbs = [4]uint64

// Modulus holds a prime modulus and its Montgomery constants.
type Modulus struct {
	M    Limbs    // modulus, little-endian limbs
	Inv  uint64   // -M^{-1} mod 2^64
	R    Limbs    // 2^256 mod M (Montgomery form of 1)
	R2   Limbs    // 2^512 mod M (for conversion into Montgomery form)
	R3   Limbs    // 2^768 mod M
	Big  *big.Int // modulus as big.Int
	Bits int      // bit length of the modulus

	ifma     ifmaConst // the IFMA block kernels' constants (block.go)
	portable bool      // the block operations run the portable kernels (Portable)
}

// NewModulus builds a Modulus from a decimal string. The modulus must be an
// odd prime whose top limb is below 2^63 - 1: the condition under which the
// no-carry Montgomery multiplication (montMulADX) never needs a fifth word.
func NewModulus(dec string) *Modulus {
	n, ok := new(big.Int).SetString(dec, 10)
	if !ok {
		panic("limbs: invalid modulus " + dec)
	}
	if n.Cmp(new(big.Int).Lsh(big.NewInt(1<<63-1), 192)) >= 0 {
		panic("limbs: modulus too large")
	}
	if n.Bit(0) == 0 {
		panic("limbs: modulus must be odd")
	}
	m := &Modulus{Big: n, Bits: n.BitLen()}
	m.M = fromBig(n)

	// Inv = -M^{-1} mod 2^64 via Newton iteration.
	inv := m.M[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - m.M[0]*inv
	}
	m.Inv = -inv

	r := new(big.Int).Lsh(big.NewInt(1), 256)
	r.Mod(r, n)
	m.R = fromBig(r)
	r2 := new(big.Int).Lsh(big.NewInt(1), 512)
	r2.Mod(r2, n)
	m.R2 = fromBig(r2)
	r3 := new(big.Int).Lsh(big.NewInt(1), 768)
	r3.Mod(r3, n)
	m.R3 = fromBig(r3)
	m.ifma = newIFMAConst(m)
	return m
}

// fromBig packs n (0 <= n < 2^256) into limbs, the inverse of ToBig. It goes
// through bytes because big.Word is 32 bits on 32-bit platforms.
func fromBig(n *big.Int) Limbs {
	var b [32]byte
	n.FillBytes(b[:])
	var l Limbs
	for i := range l {
		l[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return l
}

// ToBig converts limbs (non-Montgomery) to a big.Int.
func ToBig(l *Limbs) *big.Int {
	b := make([]byte, 32)
	for i := 0; i < 4; i++ {
		v := l[3-i]
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(v >> (56 - 8*j))
		}
	}
	return new(big.Int).SetBytes(b)
}

// FromBig reduces a big.Int mod m and returns its limbs (non-Montgomery).
func (m *Modulus) FromBig(n *big.Int) Limbs {
	v := new(big.Int).Mod(n, m.Big)
	return fromBig(v)
}

// madd returns the (hi, lo) words of a + b*c + carry. The result cannot
// overflow 128 bits because b*c <= (2^64-1)^2.
func madd(a, b, c, carry uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(b, c)
	var cc uint64
	lo, cc = bits.Add64(lo, a, 0)
	hi += cc
	lo, cc = bits.Add64(lo, carry, 0)
	hi += cc
	return
}

// MontMul sets z = x*y*R^{-1} mod M for x, y < M. On amd64 CPUs with BMI2
// and ADX it runs the assembly kernel, elsewhere the generic one; both give
// the same bits (TestMontMulKernelsAgree, FuzzMontMul).
func (m *Modulus) MontMul(z, x, y *Limbs) {
	if hasADX {
		montMulADX(z, x, y, &m.M, m.Inv)
		return
	}
	m.montMulGeneric(z, x, y)
}

// Kernel names the field kernels that run on this machine: MontMul's —
// "adx" (the MULX/ADCX/ADOX assembly) or "generic" (portable Go) — and,
// after a "+", the block kernels' (BlockKernel), e.g. "adx+ifma".
func Kernel() string {
	mul := "generic"
	if hasADX {
		mul = "adx"
	}
	return mul + "+" + BlockKernel()
}

// montMulGeneric is the portable CIOS Montgomery multiplication: the only
// kernel off amd64 or on CPUs without ADX, and the reference the assembly
// kernel is tested against.
func (m *Modulus) montMulGeneric(z, x, y *Limbs) {
	var t [6]uint64
	for i := 0; i < 4; i++ {
		var c uint64
		yi := y[i]
		c, t[0] = madd(t[0], x[0], yi, 0)
		c, t[1] = madd(t[1], x[1], yi, c)
		c, t[2] = madd(t[2], x[2], yi, c)
		c, t[3] = madd(t[3], x[3], yi, c)
		var cc uint64
		t[4], cc = bits.Add64(t[4], c, 0)
		t[5] = cc

		mm := t[0] * m.Inv
		c, _ = madd(t[0], mm, m.M[0], 0)
		c, t[0] = madd(t[1], mm, m.M[1], c)
		c, t[1] = madd(t[2], mm, m.M[2], c)
		c, t[2] = madd(t[3], mm, m.M[3], c)
		t[3], cc = bits.Add64(t[4], c, 0)
		t[4] = t[5] + cc
	}
	z[0], z[1], z[2], z[3] = t[0], t[1], t[2], t[3]
	if t[4] != 0 || !m.lessThanM(z) {
		m.subM(z)
	}
}

// MontSquare sets z = x*x*R^{-1} mod M.
func (m *Modulus) MontSquare(z, x *Limbs) { m.MontMul(z, x, x) }

func (m *Modulus) lessThanM(x *Limbs) bool {
	for i := 3; i >= 0; i-- {
		if x[i] < m.M[i] {
			return true
		}
		if x[i] > m.M[i] {
			return false
		}
	}
	return false // equal
}

func (m *Modulus) subM(z *Limbs) {
	var b uint64
	z[0], b = bits.Sub64(z[0], m.M[0], 0)
	z[1], b = bits.Sub64(z[1], m.M[1], b)
	z[2], b = bits.Sub64(z[2], m.M[2], b)
	z[3], _ = bits.Sub64(z[3], m.M[3], b)
}

// Add sets z = x + y mod M. It has no data-dependent branch: the reduction
// is a masked select, because whether it is needed is a coin flip on the
// MSM's bucket additions and a mispredict costs more than the select.
func (m *Modulus) Add(z, x, y *Limbs) {
	s0, c := bits.Add64(x[0], y[0], 0)
	s1, c := bits.Add64(x[1], y[1], c)
	s2, c := bits.Add64(x[2], y[2], c)
	s3, c := bits.Add64(x[3], y[3], c)
	d0, b := bits.Sub64(s0, m.M[0], 0)
	d1, b := bits.Sub64(s1, m.M[1], b)
	d2, b := bits.Sub64(s2, m.M[2], b)
	d3, b := bits.Sub64(s3, m.M[3], b)
	// Keep the sum when it is below M: no carry out of x + y, a borrow
	// out of sum - M.
	keep := -(b &^ c)
	z[0] = d0 ^ (d0^s0)&keep
	z[1] = d1 ^ (d1^s1)&keep
	z[2] = d2 ^ (d2^s2)&keep
	z[3] = d3 ^ (d3^s3)&keep
}

// Sub sets z = x - y mod M, adding back M masked by the borrow instead of
// branching on it.
func (m *Modulus) Sub(z, x, y *Limbs) {
	var c uint64
	d0, b := bits.Sub64(x[0], y[0], 0)
	d1, b := bits.Sub64(x[1], y[1], b)
	d2, b := bits.Sub64(x[2], y[2], b)
	d3, b := bits.Sub64(x[3], y[3], b)
	mask := -b
	z[0], c = bits.Add64(d0, m.M[0]&mask, 0)
	z[1], c = bits.Add64(d1, m.M[1]&mask, c)
	z[2], c = bits.Add64(d2, m.M[2]&mask, c)
	z[3], _ = bits.Add64(d3, m.M[3]&mask, c)
}

// Neg sets z = -x mod M.
func (m *Modulus) Neg(z, x *Limbs) {
	if IsZero(x) {
		*z = Limbs{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(m.M[0], x[0], 0)
	z[1], b = bits.Sub64(m.M[1], x[1], b)
	z[2], b = bits.Sub64(m.M[2], x[2], b)
	z[3], _ = bits.Sub64(m.M[3], x[3], b)
}

// Double sets z = 2x mod M.
func (m *Modulus) Double(z, x *Limbs) { m.Add(z, x, x) }

// IsZero reports whether all limbs are zero.
func IsZero(x *Limbs) bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// Equal reports limb-wise equality.
func Equal(x, y *Limbs) bool {
	return x[0] == y[0] && x[1] == y[1] && x[2] == y[2] && x[3] == y[3]
}

// Exp sets z = x^e mod M where x, z are in Montgomery form and e is a plain
// big integer exponent.
func (m *Modulus) Exp(z, x *Limbs, e *big.Int) {
	res := m.R // Montgomery one
	base := *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		m.MontSquare(&res, &res)
		if e.Bit(i) == 1 {
			m.MontMul(&res, &res, &base)
		}
	}
	*z = res
}

// ExpUint64 sets z = x^e mod M for a machine-word exponent. Unlike Exp it
// allocates nothing, which matters on prover hot paths (vanishing-polynomial
// evaluations, SRS power reseeds) where the exponent is always a small count.
func (m *Modulus) ExpUint64(z, x *Limbs, e uint64) {
	res := m.R // Montgomery one
	base := *x
	for i := bits.Len64(e) - 1; i >= 0; i-- {
		m.MontSquare(&res, &res)
		if e>>uint(i)&1 == 1 {
			m.MontMul(&res, &res, &base)
		}
	}
	*z = res
}

// Inverse sets z = x^{-1} mod M (Montgomery form) using the binary extended
// Euclidean algorithm (HAC 14.61 shape). This is 5-10x cheaper than the
// Fermat exponentiation it replaced (~510 shift/add word operations versus
// ~380 Montgomery multiplications), which matters because batch-affine MSM
// accumulation pays one inversion per bucket flush (AddRun). Not
// constant-time; no secret is ever inverted (curve coordinates and
// transcript challenges only). Panics on zero input: inverting zero is
// always a caller bug.
func (m *Modulus) Inverse(z, x *Limbs) {
	if IsZero(x) {
		panic("limbs: inverse of zero")
	}
	// x holds a·R; binary xgcd below yields t = (a·R)^{-1} mod M, and one
	// Montgomery multiplication by R^3 restores Montgomery form:
	// t·R^3·R^{-1} = a^{-1}·R.
	u, v := *x, m.M
	x1, x2 := Limbs{1}, Limbs{}
	for !isOneRaw(&u) && !isOneRaw(&v) {
		for u[0]&1 == 0 {
			shr1(&u, 0)
			if x1[0]&1 == 0 {
				shr1(&x1, 0)
			} else {
				shr1(&x1, addRaw(&x1, &m.M))
			}
		}
		for v[0]&1 == 0 {
			shr1(&v, 0)
			if x2[0]&1 == 0 {
				shr1(&x2, 0)
			} else {
				shr1(&x2, addRaw(&x2, &m.M))
			}
		}
		if cmpRaw(&u, &v) >= 0 {
			subRaw(&u, &v)
			m.Sub(&x1, &x1, &x2)
		} else {
			subRaw(&v, &u)
			m.Sub(&x2, &x2, &x1)
		}
	}
	t := x1
	if !isOneRaw(&u) {
		t = x2
	}
	m.MontMul(z, &t, &m.R3)
}

// isOneRaw reports whether the raw (non-modular) limb value is 1.
func isOneRaw(x *Limbs) bool { return x[0] == 1 && x[1]|x[2]|x[3] == 0 }

// shr1 shifts x right one bit, injecting hi (0 or 1) as the new top bit.
func shr1(x *Limbs, hi uint64) {
	x[0] = x[0]>>1 | x[1]<<63
	x[1] = x[1]>>1 | x[2]<<63
	x[2] = x[2]>>1 | x[3]<<63
	x[3] = x[3]>>1 | hi<<63
}

// addRaw sets z += x without reduction and returns the carry-out.
func addRaw(z, x *Limbs) uint64 {
	var c uint64
	z[0], c = bits.Add64(z[0], x[0], 0)
	z[1], c = bits.Add64(z[1], x[1], c)
	z[2], c = bits.Add64(z[2], x[2], c)
	z[3], c = bits.Add64(z[3], x[3], c)
	return c
}

// subRaw sets z -= x without reduction (caller guarantees z >= x).
func subRaw(z, x *Limbs) {
	var b uint64
	z[0], b = bits.Sub64(z[0], x[0], 0)
	z[1], b = bits.Sub64(z[1], x[1], b)
	z[2], b = bits.Sub64(z[2], x[2], b)
	z[3], _ = bits.Sub64(z[3], x[3], b)
}

// cmpRaw compares raw limb values: -1, 0, or 1.
func cmpRaw(x, y *Limbs) int {
	for i := 3; i >= 0; i-- {
		if x[i] < y[i] {
			return -1
		}
		if x[i] > y[i] {
			return 1
		}
	}
	return 0
}

// String renders limbs for debugging.
func String(l *Limbs) string {
	return fmt.Sprintf("[%#x %#x %#x %#x]", l[0], l[1], l[2], l[3])
}
