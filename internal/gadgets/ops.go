package gadgets

import (
	"slices"

	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/plonkish"
)

// Add returns x + y (same scale).
func (b *Builder) Add(x, y *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.DotRaw([]*Value{x, y}, nil, []int64{1, 1}, nil)
	}
	if b.cfg.MultiAdd {
		return b.addMR(x, y)
	}
	row, col := b.slot(KindAdd)
	b.put(x, row, col)
	b.put(y, row, col+1)
	return b.out(x.v+y.v, row, col+2)
}

// Sub returns x - y.
func (b *Builder) Sub(x, y *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.DotRaw([]*Value{x, y}, nil, []int64{1, -1}, nil)
	}
	row, col := b.slot(KindSub)
	b.put(x, row, col)
	b.put(y, row, col+1)
	return b.out(x.v-y.v, row, col+2)
}

// MulRaw returns the double-scale product x*y (caller rescales).
func (b *Builder) MulRaw(x, y *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.dotAdviceRaw([]*Value{x}, []*Value{y}, nil)
	}
	row, col := b.slot(KindMul)
	b.put(x, row, col)
	b.put(y, row, col+1)
	return b.out(x.v*y.v, row, col+2)
}

// Mul returns the rescaled fixed-point product.
func (b *Builder) Mul(x, y *Value) *Value {
	return b.Rescale(b.MulRaw(x, y))
}

// SquareRaw returns the double-scale square.
func (b *Builder) SquareRaw(x *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.dotAdviceRaw([]*Value{x}, []*Value{x}, nil)
	}
	row, col := b.slot(KindSquare)
	b.put(x, row, col)
	return b.out(x.v*x.v, row, col+1)
}

// Square returns the rescaled square.
func (b *Builder) Square(x *Value) *Value { return b.Rescale(b.SquareRaw(x)) }

// SqDiffRaw returns the double-scale squared difference (x-y)^2.
func (b *Builder) SqDiffRaw(x, y *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		d := b.Sub(x, y)
		return b.dotAdviceRaw([]*Value{d}, []*Value{d}, nil)
	}
	row, col := b.slot(KindSqDiff)
	b.put(x, row, col)
	b.put(y, row, col+1)
	d := x.v - y.v
	return b.out(d*d, row, col+2)
}

// MulC returns c*x without rescaling (integer constant multiply).
func (b *Builder) MulC(x *Value, c int64) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.DotRaw([]*Value{x}, nil, []int64{c}, nil)
	}
	row, col := b.slot(KindMulC)
	b.put(x, row, col)
	b.coef(row, col, c)
	return b.out(c*x.v, row, col+1)
}

// SumVec reduces a vector to its sum using full-row sum gadgets (arity
// NumCols-1 per row).
func (b *Builder) SumVec(vals []*Value) *Value {
	if len(vals) == 0 {
		return b.Constant(0)
	}
	arity := b.cfg.NumCols - 1
	for len(vals) > 1 {
		var next []*Value
		for lo := 0; lo < len(vals); lo += arity {
			hi := lo + arity
			if hi > len(vals) {
				hi = len(vals)
			}
			group := vals[lo:hi]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			row := b.fullRow(KindSum)
			var total int64
			for i, v := range group {
				b.put(v, row, i)
				total += v.v
			}
			next = append(next, b.out(total, row, b.cfg.NumCols-1))
		}
		vals = next
	}
	return vals[0]
}

// DotRaw computes init + sum_i xs[i]*w_i at double scale, where the weights
// are either circuit constants (consts != nil — the optimized fixed-column
// implementation) or witness values (ws != nil). The aggregation strategy
// (bias-chaining vs sum-gadget) and row mode follow the configuration.
func (b *Builder) DotRaw(xs []*Value, ws []*Value, consts []int64, init *Value) *Value {
	if consts != nil && len(consts) != len(xs) {
		b.fail("dot: %d inputs vs %d constant weights", len(xs), len(consts))
		return b.val(0)
	}
	if ws != nil && len(ws) != len(xs) {
		b.fail("dot: %d inputs vs %d weights", len(xs), len(ws))
		return b.val(0)
	}
	if len(xs) == 0 {
		if init != nil {
			return init
		}
		return b.Constant(0)
	}
	if consts != nil && b.cfg.UseConstDot && !b.cfg.MultiDot {
		if b.cfg.Dot == DotBias {
			return b.dotConstChained(xs, consts, init)
		}
		return b.dotConstSummed(xs, consts, init)
	}
	if consts != nil {
		// Materialize the constants as committed-constant values.
		ws = make([]*Value, len(consts))
		for i, c := range consts {
			ws[i] = b.Constant(c)
		}
	}
	if b.cfg.MultiDot {
		return b.dotMRSummed(xs, ws, init)
	}
	if b.cfg.Dot == DotBias {
		return b.dotAdviceChained(xs, ws, init)
	}
	// Partial dots aggregated with the sum gadget.
	n := (b.cfg.NumCols - 1) / 2
	var partials []*Value
	if init != nil {
		partials = append(partials, init)
	}
	for lo := 0; lo < len(xs); lo += n {
		hi := min(lo+n, len(xs))
		partials = append(partials, b.dotAdviceRaw(xs[lo:hi], ws[lo:hi], nil))
	}
	return b.SumVec(partials)
}

// dotAdviceRaw emits one dot (or dot_bias when acc != nil) row.
func (b *Builder) dotAdviceRaw(xs, ws []*Value, acc *Value) *Value {
	var n int
	if acc != nil {
		n = (b.cfg.NumCols - 2) / 2
	} else {
		n = (b.cfg.NumCols - 1) / 2
	}
	if len(xs) > n {
		b.fail("dot row overflow: %d operands > width %d", len(xs), n)
		return b.val(0)
	}
	var total int64
	var row int
	if acc != nil {
		row = b.fullRow(KindDotBias)
		b.put(acc, row, 2*n)
		total = acc.v
	} else {
		row = b.fullRow(KindDot)
	}
	for i := range xs {
		b.put(xs[i], row, i)
		b.put(ws[i], row, n+i)
		total += xs[i].v * ws[i].v
	}
	outCol := 2 * n
	if acc != nil {
		outCol = 2*n + 1
	}
	return b.out(total, row, outCol)
}

// dotAdviceChained aggregates through the bias slot of dot_bias rows.
func (b *Builder) dotAdviceChained(xs, ws []*Value, init *Value) *Value {
	n := (b.cfg.NumCols - 2) / 2
	acc := init
	if acc == nil {
		acc = b.Constant(0)
	}
	for lo := 0; lo < len(xs); lo += n {
		hi := min(lo+n, len(xs))
		acc = b.dotAdviceRaw(xs[lo:hi], ws[lo:hi], acc)
	}
	return acc
}

// dotConstChained uses dot_const_acc rows: [x_1..x_n, acc, z] with weights
// in coefficient columns.
func (b *Builder) dotConstChained(xs []*Value, consts []int64, init *Value) *Value {
	n := b.cfg.NumCols - 2
	acc := init
	if acc == nil {
		acc = b.Constant(0)
	}
	for lo := 0; lo < len(xs); lo += n {
		hi := min(lo+n, len(xs))
		row := b.fullRow(KindDotConstAcc)
		total := acc.v
		for i := lo; i < hi; i++ {
			b.put(xs[i], row, i-lo)
			b.coef(row, i-lo, consts[i])
			total += xs[i].v * consts[i]
		}
		b.put(acc, row, b.cfg.NumCols-2)
		acc = b.out(total, row, b.cfg.NumCols-1)
	}
	return acc
}

// dotConstSummed uses dot_const rows [x_1..x_n, z] aggregated by sums.
func (b *Builder) dotConstSummed(xs []*Value, consts []int64, init *Value) *Value {
	n := b.cfg.NumCols - 1
	var partials []*Value
	if init != nil {
		partials = append(partials, init)
	}
	for lo := 0; lo < len(xs); lo += n {
		hi := min(lo+n, len(xs))
		row := b.fullRow(KindDotConst)
		var total int64
		for i := lo; i < hi; i++ {
			b.put(xs[i], row, i-lo)
			b.coef(row, i-lo, consts[i])
			total += xs[i].v * consts[i]
		}
		partials = append(partials, b.out(total, row, b.cfg.NumCols-1))
	}
	return b.SumVec(partials)
}

// dotMRSummed uses the two-row dot gadget (Table 13): xs on the first row,
// ws on the second, result in the second row's last cell.
func (b *Builder) dotMRSummed(xs, ws []*Value, init *Value) *Value {
	n := b.cfg.NumCols - 1
	var partials []*Value
	if init != nil {
		partials = append(partials, init)
	}
	for lo := 0; lo < len(xs); lo += n {
		hi := min(lo+n, len(xs))
		row := b.fullRow(KindDotMR)
		var total int64
		for i := lo; i < hi; i++ {
			b.put(xs[i], row, i-lo)
			b.put(ws[i], row+1, i-lo)
			total += xs[i].v * ws[i].v
		}
		partials = append(partials, b.out(total, row+1, b.cfg.NumCols-1))
	}
	return b.SumVec(partials)
}

// addMR is the two-row adder (Table 13): x, y on row r; z on row r+1.
func (b *Builder) addMR(x, y *Value) *Value {
	row, col := b.slot(KindAddMR)
	b.put(x, row, col)
	b.put(y, row, col+1)
	return b.out(x.v+y.v, row+1, col)
}

// DivRoundConst returns Round(x / a) for a positive constant divisor
// (typically the scale factor). Layout [x, c, r] with the divisor in a
// coefficient column; constraints 2x + a = 2a*c + r with r and c
// range-checked.
func (b *Builder) DivRoundConst(x *Value, a int64) *Value {
	if a <= 0 || a > b.cfg.FP.HalfRange() {
		b.fail("DivRoundConst divisor %d out of (0, %d]", a, b.cfg.FP.HalfRange())
		return b.val(0)
	}
	row, col := b.slot(KindDivRound)
	c := fixedpoint.DivRound(x.v, a)
	r := 2*x.v + a - 2*a*c
	b.checkRange(c, "DivRound quotient")
	b.checkRangeUnsigned(r, "DivRound remainder")
	b.put(x, row, col)
	b.coef(row, col, a)
	b.raw(r, row, col+2)
	return b.out(c, row, col+1)
}

// Rescale divides a double-scale value back to single scale.
func (b *Builder) Rescale(x *Value) *Value {
	return b.DivRoundConst(x, b.cfg.FP.SF())
}

// VarDiv returns Round(num / den) for a positive witness divisor (the
// softmax denominator). Layout [a, b, c, r]: 2b + a = 2a*c + r, with
// lookups r in [0, 2^k), 2a-1-r in [0, 2^k), and c range-checked.
func (b *Builder) VarDiv(num, den *Value) *Value {
	if den.v <= 0 || den.v > b.cfg.FP.HalfRange() {
		b.fail("VarDiv divisor %d out of (0, %d]", den.v, b.cfg.FP.HalfRange())
		return b.val(0)
	}
	row, col := b.slot(KindVarDiv)
	c := fixedpoint.DivRound(num.v, den.v)
	r := 2*num.v + den.v - 2*den.v*c
	b.checkRange(c, "VarDiv quotient")
	b.checkRangeUnsigned(r, "VarDiv remainder")
	b.put(den, row, col)
	b.put(num, row, col+1)
	b.raw(r, row, col+3)
	return b.out(c, row, col+2)
}

// DivFloor returns floor(num / den) for a positive witness divisor
// (paper Table 4: Div(x, y)).
func (b *Builder) DivFloor(num, den *Value) *Value {
	if den.v <= 0 || den.v > b.cfg.FP.HalfRange() {
		b.fail("DivFloor divisor %d out of (0, %d]", den.v, b.cfg.FP.HalfRange())
		return b.val(0)
	}
	row, col := b.slot(KindDivFloor)
	c := fixedpoint.FloorDiv(num.v, den.v)
	r := num.v - den.v*c
	b.checkRange(c, "DivFloor quotient")
	b.checkRangeUnsigned(r, "DivFloor remainder")
	b.put(den, row, col)
	b.put(num, row, col+1)
	b.raw(r, row, col+3)
	return b.out(c, row, col+2)
}

// Max returns max(x, y) via the constraint (c-x)(c-y) = 0 plus two range
// lookups c-x >= 0 and c-y >= 0 (paper §5, reusing the range table).
func (b *Builder) Max(x, y *Value) *Value {
	if b.cfg.MultiMax {
		return b.maxMR(x, y)
	}
	row, col := b.slot(KindMax)
	b.put(x, row, col)
	b.put(y, row, col+1)
	m := x.v
	if y.v > m {
		m = y.v
	}
	return b.out(m, row, col+2)
}

// maxMR is the two-row max (Table 13).
func (b *Builder) maxMR(x, y *Value) *Value {
	row, col := b.slot(KindMaxMR)
	b.put(x, row, col)
	b.put(y, row, col+1)
	m := x.v
	if y.v > m {
		m = y.v
	}
	return b.out(m, row+1, col)
}

// MaxVec folds a vector with the max gadget.
func (b *Builder) MaxVec(vals []*Value) *Value {
	if len(vals) == 0 {
		b.fail("MaxVec of empty vector")
		return b.val(0)
	}
	// Balanced tree halves the dependency depth.
	for len(vals) > 1 {
		var next []*Value
		for i := 0; i+1 < len(vals); i += 2 {
			next = append(next, b.Max(vals[i], vals[i+1]))
		}
		if len(vals)%2 == 1 {
			next = append(next, vals[len(vals)-1])
		}
		vals = next
	}
	return vals[0]
}

// Nonlinear applies a pointwise nonlinearity through its lookup table
// (2 cells per op), or via bit decomposition for ReLU under the baseline
// strategy.
func (b *Builder) Nonlinear(nl fixedpoint.Nonlinearity, x *Value) *Value {
	if nl == fixedpoint.ReLU && b.cfg.ReLU == ReLUDecomp {
		return b.reluDecomp(x)
	}
	b.checkRange(x.v, string(nl)+" input")
	row, col := b.slot(b.nlKind(nl))
	b.put(x, row, col)
	return b.out(b.cfg.FP.Fixed(nl, x.v), row, col+1)
}

// nlKind returns the kind of nl, adding its catalog entry on first use.
func (b *Builder) nlKind(nl fixedpoint.Nonlinearity) Kind {
	kind := NLKind(nl)
	if b.catalog[kind] == nil {
		b.catalog[kind] = nlEntry(b.cfg.FP, nl)
		i, _ := slices.BinarySearch(b.nlTables, kind)
		b.nlTables = slices.Insert(b.nlTables, i, kind)
	}
	return kind
}

// ReLU is a convenience wrapper.
func (b *Builder) ReLU(x *Value) *Value { return b.Nonlinear(fixedpoint.ReLU, x) }

// reluDecomp computes ReLU with a full bit decomposition (b+2 cells: the
// paper's description of how prior work represents ReLU). Layout
// [x, y, bit_0 .. bit_{k-1}] where x + 2^(k-1) = sum 2^i bit_i and
// y = bit_{k-1} * x.
func (b *Builder) reluDecomp(x *Value) *Value {
	k := b.cfg.FP.LookupBits
	b.checkRange(x.v, "relu input")
	row, base := b.slot(KindReluDecomp)
	b.put(x, row, base)
	shifted := x.v + b.cfg.FP.HalfRange()
	for i := 0; i < k; i++ {
		b.raw((shifted>>uint(i))&1, row, base+2+i)
	}
	y := int64(0)
	if x.v >= 0 {
		y = x.v
	}
	return b.out(y, row, base+1)
}

// RegisterTable registers (idempotently) an embedding table for Gather.
// data is row-major [vocab][dim].
func (b *Builder) RegisterTable(name string, vocab, dim int, data []int64) {
	kind := gatherKind(name)
	if e := b.catalog[kind]; e != nil {
		if len(e.table[0]) != vocab || len(e.table)-1 != dim {
			b.fail("table %q re-registered with different shape", name)
		}
		return
	}
	if vocab < 1 || len(data) != vocab*dim {
		b.fail("table %q: %d values do not fit %dx%d", name, len(data), vocab, dim)
		return
	}
	if dim+1 > b.cfg.NumCols {
		b.fail("table %q: row width %d exceeds %d columns", name, dim+1, b.cfg.NumCols)
		return
	}
	b.catalog[kind] = gatherEntry(vocab, dim, data)
	b.gatherTables = append(b.gatherTables, kind)
}

// Gather selects row id of a registered table via a lookup argument: the
// slot holds [id, e_0 .. e_{dim-1}] and the tuple must appear in the
// committed table. This is the dynamic-index embedding lookup (DLRM and
// language-model token embeddings); the id is a witness value.
//
// Failures surface through Err, never as nil elements: an out-of-range id
// yields dim usable zero values so downstream gadgets don't dereference
// nil before the build error is checked. Only an unregistered table — where
// dim is unknown — returns nil, and callers that know their width (Embed)
// substitute zeros.
func (b *Builder) Gather(name string, id *Value) []*Value {
	kind := gatherKind(name)
	e := b.catalog[kind]
	if e == nil {
		b.fail("Gather from unregistered table %q", name)
		return nil
	}
	idv, vocab := int(id.v), len(e.table[0])
	out := make([]*Value, e.cells-1)
	if idv < 0 || idv >= vocab {
		b.fail("Gather id %d out of range [0,%d)", idv, vocab)
		for d := range out {
			out[d] = b.val(0)
		}
		return out
	}
	row, base := b.slot(kind)
	b.put(id, row, base)
	for d := range out {
		out[d] = b.out(e.table[1+d][idv], row, base+1+d)
	}
	return out
}

// RangeAssert constrains x to the lookup-table input range.
func (b *Builder) RangeAssert(x *Value) {
	b.checkRange(x.v, "range assert")
	row, col := b.slot(KindRange)
	b.put(x, row, col)
}

// FreivaldsMatMul returns C = A·W at double scale for A: M×K and W: K×N,
// checked by Freivalds' algorithm (paper §6) in K + 2M rows rather than
// M·N dot products. With ρ_j = r^(j+1) for the challenge r squeezed after
// phase 0, fv_fold rows fold each row l of W into t_l = Σ_j W_lj·ρ_j and
// each row i of C into v_i; row i of A sits in an fv_dot row beside copies
// of t, with u_i = Σ_l A_il·t_l copied to v_i. A wrong C passes with
// probability at most N/|F|. The product must fit one row: K ≤ NumCols−1
// and N ≤ NumCols.
func (b *Builder) FreivaldsMatMul(a, w [][]*Value) [][]*Value {
	m, k, n, nc := len(a), len(w), 0, b.cfg.NumCols
	if k > 0 {
		n = len(w[0])
	}
	fits := k > 0 && n > 0 && k < nc && n <= nc
	for _, row := range a {
		fits = fits && len(row) == k
	}
	for _, row := range w {
		fits = fits && len(row) == n
	}
	c := make([][]*Value, m)
	for i := range c {
		c[i] = make([]*Value, n)
		for j := range c[i] {
			var sum int64
			for l := 0; fits && l < k; l++ {
				sum += a[i][l].v * w[l][j].v
			}
			c[i][j] = b.val(sum)
		}
	}
	if !fits {
		b.fail("freivalds: %d×%d by %d×%d product does not fit one row of %d columns", m, k, k, n, nc)
		return c
	}
	// lay puts xs in a new row of kind and committed zeros after them up
	// to width; late addresses a phase-1 cell.
	lay := func(kind Kind, xs []*Value, width int) int {
		row := b.fullRow(kind)
		for j := 0; j < width; j++ {
			if j < len(xs) {
				b.put(xs[j], row, j)
			} else {
				b.put(b.Constant(0), row, j)
			}
		}
		return row
	}
	late := func(row, col int) plonkish.Cell { return plonkish.Cell{Col: plonkish.AdviceCol(nc + col), Row: row} }
	tRows, uRows, vRows := make([]int, k), make([]int, m), make([]int, m)
	for l := range w {
		tRows[l] = lay(KindFvFold, w[l], n)
	}
	for i := range a {
		// Zeros pad A's row: a free a_l would let the prover pick its
		// phase-1 partner t_l after seeing r.
		uRows[i] = lay(KindFvDot, a[i], nc-1)
		for l, row := range tRows {
			b.equate(late(uRows[i], l), late(row, 0))
		}
	}
	for i := range c {
		vRows[i] = lay(KindFvFold, c[i], n)
		b.equate(late(uRows[i], nc-1), late(vRows[i], 0))
	}
	if b.mode == dryBuild {
		return c
	}
	b.late = append(b.late, func(r ff.Element, block [][]ff.Element) {
		rho := []ff.Element{r} // ρ_j = r^(j+1)
		for j := 1; j < n; j++ {
			rho = append(rho, *new(ff.Element).Mul(&rho[j-1], &r))
		}
		dot := func(xs []*Value, ys []ff.Element) (sum ff.Element) {
			for j, x := range xs {
				e := ff.NewInt64(x.v)
				sum.Add(&sum, e.Mul(&e, &ys[j]))
			}
			return sum
		}
		t := make([]ff.Element, k)
		for l, row := range tRows {
			t[l] = dot(w[l], rho)
			block[0][row] = t[l]
		}
		for i, row := range uRows {
			for l := range t {
				block[l][row] = t[l]
			}
			block[nc-1][row] = dot(a[i], t)
			block[0][vRows[i]] = dot(c[i], rho)
		}
	})
	return c
}
