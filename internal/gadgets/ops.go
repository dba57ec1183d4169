package gadgets

import (
	"repro/internal/fixedpoint"
	"repro/internal/plonkish"
)

// Additional dot-gadget kinds with constant (fixed-column) weights.
const (
	// KindDotConstAcc is [x_1..x_n, acc, z] with weights in coefficient
	// columns: z = acc + sum x_i*C_i (bias-chaining aggregation).
	KindDotConstAcc Kind = "dot_const_acc"
)

// Add returns x + y (same scale).
func (b *Builder) Add(x, y *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.DotRaw([]*Value{x, y}, nil, []int64{1, 1}, nil)
	}
	if b.cfg.MultiAdd {
		return b.addMR(x, y)
	}
	row, s := b.slot(KindAdd, 3, 1)
	b.put(x, row, s*3)
	b.put(y, row, s*3+1)
	return b.out(x.v+y.v, row, s*3+2)
}

// Sub returns x - y.
func (b *Builder) Sub(x, y *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.DotRaw([]*Value{x, y}, nil, []int64{1, -1}, nil)
	}
	row, s := b.slot(KindSub, 3, 1)
	b.put(x, row, s*3)
	b.put(y, row, s*3+1)
	return b.out(x.v-y.v, row, s*3+2)
}

// MulRaw returns the double-scale product x*y (caller rescales).
func (b *Builder) MulRaw(x, y *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.dotAdviceRaw([]*Value{x}, []*Value{y}, nil)
	}
	row, s := b.slot(KindMul, 3, 1)
	b.put(x, row, s*3)
	b.put(y, row, s*3+1)
	return b.out(x.v*y.v, row, s*3+2)
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
	row, s := b.slot(KindSquare, 2, 1)
	b.put(x, row, s*2)
	return b.out(x.v*x.v, row, s*2+1)
}

// Square returns the rescaled square.
func (b *Builder) Square(x *Value) *Value { return b.Rescale(b.SquareRaw(x)) }

// SqDiffRaw returns the double-scale squared difference (x-y)^2.
func (b *Builder) SqDiffRaw(x, y *Value) *Value {
	if b.cfg.Arith == ArithViaDot {
		d := b.Sub(x, y)
		return b.dotAdviceRaw([]*Value{d}, []*Value{d}, nil)
	}
	row, s := b.slot(KindSqDiff, 3, 1)
	b.put(x, row, s*3)
	b.put(y, row, s*3+1)
	d := x.v - y.v
	return b.out(d*d, row, s*3+2)
}

// MulC returns c*x without rescaling (integer constant multiply).
func (b *Builder) MulC(x *Value, c int64) *Value {
	if b.cfg.Arith == ArithViaDot {
		return b.DotRaw([]*Value{x}, nil, []int64{c}, nil)
	}
	row, s := b.slot(KindMulC, 2, 1)
	b.put(x, row, s*2)
	b.coef(row, s*2, c)
	return b.out(c*x.v, row, s*2+1)
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
			row := b.fullRow(KindSum, 1)
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
		row = b.fullRow(KindDotBias, 1)
		b.put(acc, row, 2*n)
		total = acc.v
	} else {
		row = b.fullRow(KindDot, 1)
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
		row := b.fullRow(KindDotConstAcc, 1)
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
		row := b.fullRow(KindDotConst, 1)
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
		row := b.fullRow(KindDotMR, 2)
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
	row, s := b.slot(KindAddMR, 2, 2)
	b.put(x, row, s*2)
	b.put(y, row, s*2+1)
	return b.out(x.v+y.v, row+1, s*2)
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
	row, s := b.slot(KindDivRound, 3, 1)
	c := fixedpoint.DivRound(x.v, a)
	r := 2*x.v + a - 2*a*c
	b.checkRange(c, "DivRound quotient")
	b.checkRangeUnsigned(r, "DivRound remainder")
	b.put(x, row, s*3)
	b.coef(row, s*3, a)
	b.raw(r, row, s*3+2)
	return b.out(c, row, s*3+1)
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
	row, s := b.slot(KindVarDiv, 4, 1)
	c := fixedpoint.DivRound(num.v, den.v)
	r := 2*num.v + den.v - 2*den.v*c
	b.checkRange(c, "VarDiv quotient")
	b.checkRangeUnsigned(r, "VarDiv remainder")
	b.put(den, row, s*4)
	b.put(num, row, s*4+1)
	b.raw(r, row, s*4+3)
	return b.out(c, row, s*4+2)
}

// DivFloor returns floor(num / den) for a positive witness divisor
// (paper Table 4: Div(x, y)).
func (b *Builder) DivFloor(num, den *Value) *Value {
	if den.v <= 0 || den.v > b.cfg.FP.HalfRange() {
		b.fail("DivFloor divisor %d out of (0, %d]", den.v, b.cfg.FP.HalfRange())
		return b.val(0)
	}
	row, s := b.slot(KindDivFloor, 4, 1)
	c := fixedpoint.FloorDiv(num.v, den.v)
	r := num.v - den.v*c
	b.checkRange(c, "DivFloor quotient")
	b.checkRangeUnsigned(r, "DivFloor remainder")
	b.put(den, row, s*4)
	b.put(num, row, s*4+1)
	b.raw(r, row, s*4+3)
	return b.out(c, row, s*4+2)
}

// Max returns max(x, y) via the constraint (c-x)(c-y) = 0 plus two range
// lookups c-x >= 0 and c-y >= 0 (paper §5, reusing the range table).
func (b *Builder) Max(x, y *Value) *Value {
	if b.cfg.MultiMax {
		return b.maxMR(x, y)
	}
	row, s := b.slot(KindMax, 3, 1)
	b.put(x, row, s*3)
	b.put(y, row, s*3+1)
	m := x.v
	if y.v > m {
		m = y.v
	}
	return b.out(m, row, s*3+2)
}

// maxMR is the two-row max (Table 13).
func (b *Builder) maxMR(x, y *Value) *Value {
	row, s := b.slot(KindMaxMR, 2, 2)
	b.put(x, row, s*2)
	b.put(y, row, s*2+1)
	m := x.v
	if y.v > m {
		m = y.v
	}
	return b.out(m, row+1, s*2)
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
	b.nls[nl] = true
	row, s := b.slot(NLKind(nl), 2, 1)
	b.stats.LookupSites++
	b.put(x, row, s*2)
	return b.out(b.cfg.FP.Fixed(nl, x.v), row, s*2+1)
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
	row, s := b.slot(KindReluDecomp, k+2, 1)
	base := s * (k + 2)
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

// gatherTable is a committed embedding table for in-circuit gathers.
type gatherTable struct {
	name  string
	vocab int
	dim   int
	data  []int64 // row-major [vocab][dim]
}

// gatherKind returns the gadget kind for gathers from a named table.
func gatherKind(name string) Kind { return Kind("gather_" + name) }

// RegisterTable registers (idempotently) an embedding table for Gather.
// data is row-major [vocab][dim].
func (b *Builder) RegisterTable(name string, vocab, dim int, data []int64) {
	if t, ok := b.gatherTables[name]; ok {
		if t.vocab != vocab || t.dim != dim {
			b.fail("table %q re-registered with different shape", name)
		}
		return
	}
	if len(data) != vocab*dim {
		b.fail("table %q: %d values do not fit %dx%d", name, len(data), vocab, dim)
		return
	}
	if dim+1 > b.cfg.NumCols {
		b.fail("table %q: row width %d exceeds %d columns", name, dim+1, b.cfg.NumCols)
		return
	}
	b.gatherTables[name] = &gatherTable{name: name, vocab: vocab, dim: dim,
		data: append([]int64(nil), data...)}
	b.gatherOrder = append(b.gatherOrder, name)
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
	t, ok := b.gatherTables[name]
	if !ok {
		b.fail("Gather from unregistered table %q", name)
		return nil
	}
	idv := int(id.v)
	if idv < 0 || idv >= t.vocab {
		b.fail("Gather id %d out of range [0,%d)", idv, t.vocab)
		out := make([]*Value, t.dim)
		for d := range out {
			out[d] = b.val(0)
		}
		return out
	}
	row, s := b.slot(gatherKind(name), t.dim+1, 1)
	base := s * (t.dim + 1)
	b.put(id, row, base)
	b.stats.LookupSites++
	out := make([]*Value, t.dim)
	for d := 0; d < t.dim; d++ {
		out[d] = b.out(t.data[idv*t.dim+d], row, base+1+d)
	}
	return out
}

// RangeAssert constrains x to the lookup-table input range.
func (b *Builder) RangeAssert(x *Value) {
	b.checkRange(x.v, "range assert")
	b.rangeUsed = true
	row, s := b.slot(KindRange, 1, 1)
	b.stats.LookupSites++
	b.put(x, row, s)
}

// AssertEqual copy-constrains two values (and checks them at build time).
func (b *Builder) AssertEqual(x, y *Value) {
	if x.v != y.v {
		b.fail("AssertEqual: %d != %d", x.v, y.v)
		return
	}
	b.ensurePlaced(x)
	b.ensurePlaced(y)
	b.copies = append(b.copies, [2]plonkish.Cell{x.cell, y.cell})
}
