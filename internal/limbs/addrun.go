package limbs

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
// scratch holds at least 3·len(ops) elements.
//
// On amd64 CPUs with BMI2 and ADX, for a modulus below 2^254 (both BN254
// fields), both passes are assembly (addRunFirstADX, addRunSecondADX),
// which leave products that only feed further products below 2M instead of
// reducing them; elsewhere they are the portable addRunGeneric, and both
// give the same bits (TestAddRunKernelsAgree, FuzzAddRun).
func (m *Modulus) AddRun(ops []AddOp, scratch []Limbs) {
	n := len(ops)
	if n == 0 {
		return
	}
	if len(scratch) < 3*n {
		panic("limbs: AddRun scratch shorter than 3·len(ops)")
	}
	den, num, prefix := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	if !hasADX || m.M[3] >= 1<<62 {
		m.addRunGeneric(ops, den, num, prefix)
		return
	}
	acc := m.R
	addRunFirstADX(&ops[0], n, &den[0], &num[0], &prefix[0], &acc, &m.M, m.Inv)
	if !m.lessThanM(&acc) { // the passes keep products below 2M
		m.subM(&acc)
	}
	m.Inverse(&acc, &acc)
	addRunSecondADX(&ops[0], n, &den[0], &num[0], &prefix[0], &acc, &m.M, m.Inv)
}

// addRunGeneric is the portable AddRun: the only kernel off amd64 or on
// CPUs without ADX, and the reference the assembly passes are tested
// against.
func (m *Modulus) addRunGeneric(ops []AddOp, den, num, prefix []Limbs) {
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
