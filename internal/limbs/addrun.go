package limbs

import "unsafe"

// AddOp is one affine point addition of an AddRun on a curve
// y² = x³ + b: P ← P + Q, or P ← P − Q when Neg. P and Q point at an
// (x, y) pair of Montgomery-form coordinates below the modulus; (0, 0)
// stands for the point at infinity, which such a curve cannot otherwise
// hold when b is not a square.
type AddOp struct {
	P, Q *[2]Limbs
	Neg  bool
}

// AddRun applies every op of a batch with one shared inversion
// (Montgomery's trick): for each op it forms the slope's denominator and
// numerator — x_q − x_p and y_q − y_p, or x_p − x_q and y_q + y_p for
// P − Q, or 2y_p and 3x_p² when the sum is a doubling — multiplies the
// nonzero denominators into a running prefix, inverts the product once and
// walks back, each op taking its own inverse from the prefix and applying
// the sum: six multiplications per addition. A sum at infinity — P =
// −(±Q), or a doubling of a point with y = 0 — leaves P = (0, 0). Neither
// P nor Q may be (0, 0), and no op's P may be another op's P or Q.
// scratch holds at least AddRunScratch(len(ops)) elements.
//
// For a modulus below 2^254 (both BN254 fields) it runs one of three
// kernels, which all write the same bits (TestAddRunKernelsAgree,
// FuzzAddRun):
//   - ifma, on amd64 CPUs with AVX-512 IFMA unless m is a Portable copy:
//     addRunIFMA, both passes eight ops per instruction on sixteen
//     interleaved prefix chains, whose totals are multiplied together and
//     inverted once in scalar code;
//   - adx, on amd64 CPUs with BMI2 and ADX: both passes in scalar assembly
//     (addRunFirstADX, addRunSecondADX), which leave products that only
//     feed further products below 2M instead of reducing them;
//   - generic, elsewhere and for larger moduli: addRunGeneric, the
//     reference the other two are tested against.
func (m *Modulus) AddRun(ops []AddOp, scratch []Limbs) {
	n := len(ops)
	if n == 0 {
		return
	}
	if len(scratch) < AddRunScratch(n) {
		panic("limbs: AddRun scratch shorter than AddRunScratch(len(ops))")
	}
	fits := m.M[3] < 1<<62 // M < 2^254, which the assembly kernels' bounds need
	switch {
	case fits && m.useIFMA():
		m.addRunIFMA(ops, scratch)
	case fits && hasADX:
		m.addRunADX(ops, scratch)
	default:
		m.addRunGeneric(ops, scratch)
	}
}

// AddRunScratch returns the number of scratch elements AddRun needs for n
// ops: three per op on the scalar kernels; on the IFMA kernel a slot of
// six vectors per eight ops and two more slots for the chain totals, two
// vectors of running inverses, one of working space, and one element to
// align them to 64 bytes.
func AddRunScratch(n int) int {
	return max(3*n, ifmaRunWords(n)/4+1)
}

// The IFMA AddRun's scratch in 64-bit words: a vector is five 52-bit limbs
// of eight lanes, and each vector of ops has a slot of six (block_amd64.s).
const (
	vecWords  = 5 * 8
	slotWords = 6 * vecWords
)

// ifmaRunWords is the number of words addRunIFMA lays out for n ops.
func ifmaRunWords(n int) int { return slotWords*(vectors(n)+2) + 3*vecWords }

// addRunIFMA is AddRun on the IFMA kernel. Vector g of the first pass
// (addRunFirstIFMA) takes ops 8g … 8g + 7 and continues the prefix chain of
// vector g − 2, so lane j of the sixteen chains takes ops j, j + 16, ….
// Its products, by 2^-260, of values kept at R = 2^256 leave a factor 2^-4
// each in a chain, so a chain total T is in no Montgomery form; but the
// second pass (block_amd64.s) needs only 2^518/T per lane. Here the
// sixteen totals are multiplied together, inverted once and walked back
// (Montgomery's trick again, on MontMul), and one MontMul by 2^262 takes
// every lane's 2^512/T to 2^518/T.
func (m *Modulus) addRunIFMA(ops []AddOp, scratch []Limbs) {
	n := len(ops)
	w := ifmaWords(scratch, ifmaRunWords(n))
	nv := vectors(n)
	c := slotWords * (nv + 2)
	chains, inv, tmp := w[:c], w[c:c+2*vecWords], w[c+2*vecWords:]
	// Both chains start at a one, in the P of vectors 0 and 1.
	for v := 0; v < 2; v++ {
		setLanes(chains[slotWords*v:], m.ifma.out)
	}
	addRunFirstIFMA(&ops[0], n, &chains[0], &tmp[0], &m.ifma)

	// The second pass starts with the chain of the last vector, nv − 1,
	// whose total is in the P of vector nv + 1; the other's is in that of
	// vector nv.
	var tot, pre [16]Limbs
	for j := range tot {
		tot[j] = lane(chains[slotWords*(nv+1-j/8):], j%8)
		if !m.lessThanM(&tot[j]) { // the chains stay below 2M
			m.subM(&tot[j])
		}
	}
	acc := m.R
	for j := range tot {
		pre[j] = acc
		m.MontMul(&acc, &acc, &tot[j])
	}
	m.Inverse(&acc, &acc)
	m.MontMul(&acc, &acc, &m.ifma.lanes)
	for j := len(tot) - 1; j >= 0; j-- {
		var t Limbs
		m.MontMul(&t, &acc, &pre[j])
		m.MontMul(&acc, &acc, &tot[j])
		setLane(inv[vecWords*(j/8):], j%8, split52(t))
	}
	addRunSecondIFMA(&ops[0], n, &chains[0], &inv[0], &tmp[0], &m.ifma)
}

// ifmaWords views the first n words of scratch from a 64-byte boundary, so
// no vector the IFMA kernel loads or stores straddles two cache lines.
func ifmaWords(scratch []Limbs, n int) []uint64 {
	if uintptr(unsafe.Pointer(&scratch[0]))%64 != 0 {
		scratch = scratch[1:]
	}
	return unsafe.Slice(&scratch[0][0], 4*len(scratch))[:n]
}

// lane joins lane j of the vector at v, five 52-bit limbs 8 words apart.
func lane(v []uint64, j int) Limbs {
	l0, l1, l2, l3, l4 := v[j], v[8+j], v[16+j], v[24+j], v[32+j]
	return Limbs{l0 | l1<<52, l1>>12 | l2<<40, l2>>24 | l3<<28, l3>>36 | l4<<16}
}

// setLane sets lane j of the vector at v to the limbs l.
func setLane(v []uint64, j int, l [5]uint64) {
	for i, x := range l {
		v[8*i+j] = x
	}
}

// setLanes sets every lane of the vector at v to the limbs l.
func setLanes(v []uint64, l [5]uint64) {
	for j := 0; j < 8; j++ {
		setLane(v, j, l)
	}
}

// addRunADX is AddRun on the ADX kernel.
func (m *Modulus) addRunADX(ops []AddOp, scratch []Limbs) {
	n := len(ops)
	den, num, prefix := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	acc := m.R
	addRunFirstADX(&ops[0], n, &den[0], &num[0], &prefix[0], &acc, &m.M, m.Inv)
	if !m.lessThanM(&acc) { // the passes keep products below 2M
		m.subM(&acc)
	}
	m.Inverse(&acc, &acc)
	addRunSecondADX(&ops[0], n, &den[0], &num[0], &prefix[0], &acc, &m.M, m.Inv)
}

// addRunGeneric is the portable AddRun: the only kernel off amd64 or on
// CPUs without ADX, and the reference the assembly kernels are tested
// against.
func (m *Modulus) addRunGeneric(ops []AddOp, scratch []Limbs) {
	n := len(ops)
	den, num, prefix := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	acc := m.R
	for i := range ops {
		m.slope(&ops[i], &den[i], &num[i])
		prefix[i] = acc
		if !IsZero(&den[i]) {
			m.montMulGeneric(&acc, &acc, &den[i])
		}
	}
	m.Inverse(&acc, &acc)
	m.applyGeneric(ops, den, num, prefix, &acc)
}

// slope writes op's slope denominator and numerator into d and u; d is
// zero when the sum is the point at infinity.
func (m *Modulus) slope(op *AddOp, d, u *Limbs) {
	p, q := op.P, op.Q
	if op.Neg {
		m.Sub(d, &p[0], &q[0])
		m.Add(u, &q[1], &p[1])
	} else {
		m.Sub(d, &q[0], &p[0])
		m.Sub(u, &q[1], &p[1])
	}
	if !IsZero(d) || !IsZero(u) {
		return // distinct x, or P = −(±Q): d = 0 marks the cancellation
	}
	// P = ±Q: λ = 3x²/2y.
	m.Double(d, &p[1])
	var x2 Limbs
	m.montMulGeneric(&x2, &p[0], &p[0])
	m.Double(u, &x2)
	m.Add(u, u, &x2)
}

// applyGeneric is AddRun's second pass: inv holds the inverse of the
// product of the nonzero denominators.
func (m *Modulus) applyGeneric(ops []AddOp, den, num, prefix []Limbs, inv *Limbs) {
	for i := len(ops) - 1; i >= 0; i-- {
		p, q := ops[i].P, ops[i].Q
		if IsZero(&den[i]) {
			*p = [2]Limbs{}
			continue
		}
		var t, lam, x3, y3 Limbs
		m.montMulGeneric(&t, inv, &prefix[i])
		m.montMulGeneric(inv, inv, &den[i])
		m.montMulGeneric(&lam, &num[i], &t)
		m.montMulGeneric(&x3, &lam, &lam)
		m.Sub(&x3, &x3, &p[0])
		m.Sub(&x3, &x3, &q[0])
		m.Sub(&y3, &p[0], &x3)
		m.montMulGeneric(&y3, &y3, &lam)
		m.Sub(&y3, &y3, &p[1])
		p[0], p[1] = x3, y3
	}
}
