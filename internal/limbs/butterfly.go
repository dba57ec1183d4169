package limbs

// butterflyRows is the portable kernel's butterfly over len(x) rows: for
// i < len(x), with t = w[i]·y[i]·R^{-1} (a Montgomery product), it sets
// x[i] = x[i] + t and y[i] = x[i] − t mod M. A first twiddle of 1 — the
// first row of every NTT stage's first twiddle block — is an add and a
// subtract. On amd64 CPUs with BMI2 and ADX the products are one assembly
// call (butterflyRunADX), elsewhere the loop butterflyRunGeneric; both give
// the same bits (TestButterflyKernelsAgree). x has at least one row, y and
// w are at least as long, and every operand is below M.
func (m *Modulus) butterflyRows(x, y, w []Limbs) {
	if w[0] == m.R {
		m.addSub(&x[0], &y[0])
		x, y, w = x[1:], y[1:], w[1:]
	}
	if len(x) == 0 {
		return
	}
	if hasADX {
		butterflyRunADX(&x[0], &y[0], &w[0], len(x), &m.M, m.Inv)
		return
	}
	m.butterflyRunGeneric(x, y, w)
}

// addSub sets a, b = a + b, a − b mod M: a butterfly under twiddle 1.
func (m *Modulus) addSub(a, b *Limbs) {
	t := *b
	m.Sub(b, a, &t)
	m.Add(a, a, &t)
}

// butterflyRunGeneric is the portable butterflyRunADX: the only loop off
// amd64 or on CPUs without ADX, and the reference the assembly is tested
// against.
func (m *Modulus) butterflyRunGeneric(x, y, w []Limbs) {
	for i := range x {
		a, b := &x[i], &y[i]
		var t Limbs
		m.montMulGeneric(&t, &w[i], b)
		m.Sub(b, a, &t)
		m.Add(a, a, &t)
	}
}
