package limbs

// ButterflyRun applies n NTT butterflies in one call: for i < n, with
// a = x[i·xs], b = y[i·xs] and t = w[i·ws]·b·R^{-1} (a Montgomery product),
// it sets x[i·xs] = a + t and y[i·xs] = a − t mod M. The pairs advance by
// xs ≥ 1 elements and the twiddles by ws ≥ 0 (ws = 0 reuses w[0] for every
// pair). Every operand must be below M, and the 2n elements of the pairs
// must be distinct. On amd64 CPUs with BMI2 and ADX the loop is one
// assembly call (butterflyRunADX); elsewhere it is the portable
// butterflyRunGeneric, and both give the same bits
// (TestButterflyKernelsAgree, FuzzButterfly). The index bounds are checked
// here, before either kernel runs; a run that does not fit panics.
func (m *Modulus) ButterflyRun(x, y, w []Limbs, n, xs, ws int) {
	checkRun("ButterflyRun", n, xs, ws)
	if n == 0 {
		return
	}
	if !fits(len(x), n, xs) || !fits(len(y), n, xs) || !fits(len(w), n, ws) {
		panic("limbs: ButterflyRun out of range")
	}
	if hasADX {
		butterflyRunADX(&x[0], &y[0], &w[0], n, xs, ws, &m.M, m.Inv)
		return
	}
	m.butterflyRunGeneric(x, y, w, n, xs, ws)
}

// AddSubRun is ButterflyRun with every twiddle 1: for i < n it sets
// x[i·xs], y[i·xs] = x[i·xs] + y[i·xs], x[i·xs] − y[i·xs] mod M, with no
// multiplication. It is the butterfly at offset 0 of every NTT block.
func (m *Modulus) AddSubRun(x, y []Limbs, n, xs int) {
	checkRun("AddSubRun", n, xs, 0)
	if n == 0 {
		return
	}
	if !fits(len(x), n, xs) || !fits(len(y), n, xs) {
		panic("limbs: AddSubRun out of range")
	}
	for i := 0; i < n; i++ {
		a, b := &x[i*xs], &y[i*xs]
		t := *b
		m.Sub(b, a, &t)
		m.Add(a, a, &t)
	}
}

// butterflyRunGeneric is the portable ButterflyRun loop: the only kernel
// off amd64 or on CPUs without ADX, and the reference the assembly run is
// tested against.
func (m *Modulus) butterflyRunGeneric(x, y, w []Limbs, n, xs, ws int) {
	for i := 0; i < n; i++ {
		a, b := &x[i*xs], &y[i*xs]
		var t Limbs
		m.montMulGeneric(&t, &w[i*ws], b)
		m.Sub(b, a, &t)
		m.Add(a, a, &t)
	}
}

// checkRun panics unless n ≥ 0, xs ≥ 1 and ws ≥ 0.
func checkRun(op string, n, xs, ws int) {
	if n < 0 || xs < 1 || ws < 0 {
		panic("limbs: " + op + " with a negative count or a stride below its minimum")
	}
}

// fits reports whether the indices 0, s, …, (n−1)·s (n ≥ 1, s ≥ 0) all lie
// in a slice of length l, without forming (n−1)·s.
func fits(l, n, s int) bool {
	return l > 0 && (s == 0 || n-1 <= (l-1)/s)
}
