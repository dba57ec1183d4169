package gadgets

import (
	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/plonkish"
)

// Kind names a gadget (one selector column each).
type Kind string

// The gadget kinds with fixed layouts; newCatalog declares each one.
const (
	KindIO       Kind = "io" // unconstrained witness cells (inputs)
	KindAdd      Kind = "add"
	KindSub      Kind = "sub"
	KindMul      Kind = "mul" // raw product, no rescale
	KindSquare   Kind = "square"
	KindSqDiff   Kind = "sqdiff"
	KindSum      Kind = "sum"
	KindDot      Kind = "dot"
	KindDotBias  Kind = "dot_bias"
	KindDotConst Kind = "dot_const" // weights in parallel fixed columns
	// KindDotConstAcc is [x_1..x_n, acc, z] with weights in coefficient
	// columns: z = acc + sum x_i*C_i (bias-chaining aggregation).
	KindDotConstAcc Kind = "dot_const_acc"
	KindMulC        Kind = "mulc"     // multiply by per-row constant
	KindDivRound    Kind = "divround" // rounded division by per-row constant
	KindVarDiv      Kind = "vardiv"   // rounded division by witness value
	KindDivFloor    Kind = "divfloor" // floor division by witness value
	KindMax         Kind = "max"
	KindRange       Kind = "range"
	KindReluDecomp  Kind = "relu_decomp" // bit-decomposition ReLU (baseline)
	KindAddMR       Kind = "add_mr"      // multi-row variants (Table 13)
	KindMaxMR       Kind = "max_mr"
	KindDotMR       Kind = "dot_mr"
	// Freivalds-checked products (FreivaldsMatMul): rows whose phase-1
	// cells hold functions of the challenge r.
	KindFvFold Kind = "fv_fold" // [x_0 .. x_{N-1} | y]: y = Σ x_j·r^(j+1)
	KindFvDot  Kind = "fv_dot"  // [a_0 .. a_{N-2} | t_0 .. t_{N-2}, u]: u = Σ a_l·t_l
)

// NLKind returns the gadget kind for a pointwise nonlinearity lookup.
func NLKind(nl fixedpoint.Nonlinearity) Kind { return Kind("nl_" + string(nl)) }

// gatherKind returns the gadget kind for gathers from a named table.
func gatherKind(name string) Kind { return Kind("gather_" + name) }

// entry is one gadget kind's catalog entry: everything the builder and
// Finalize know about the kind. Rows of a kind are cut into slots of cells
// advice cells each, side by side; Finalize emits gate and lookups once per
// slot that fits NumCols.
type entry struct {
	cells int // advice cells per slot; a full-row kind takes NumCols
	rows  int // rows a slot spans; only the first carries the selector
	// gate returns one slot's constraints, before the selector multiplies
	// them in; nil for a kind without a gate.
	gate func(s slotCells) []plonkish.Expr
	// lookups returns one slot's lookups into the kind's table: the range
	// table if rangeTable, then the kind's own fixed columns, table.
	lookups    func(s slotCells) []probe
	rangeTable bool
	table      [][]int64
	// pad and padCoef are an unused slot's first-row cells and
	// coefficients: values that satisfy the gate and lookups. Nil is zero.
	pad, padCoef []int64
	coefs        bool // the gate reads the per-row coefficient columns
	// phase1 gives the slot a second block of cells, committed after the
	// challenge r is squeezed: the cells at the same offsets in advice
	// columns [NumCols, 2·NumCols), read with slotCells.late.
	phase1 bool
}

// constrains reports whether the kind has a gate or lookups, and so a
// selector column.
func (e *entry) constrains() bool { return e.gate != nil || e.lookups != nil }

// slotCells addresses one slot's cells while an entry states its
// constraints.
type slotCells struct {
	base     int // the slot's first advice column
	coefBase int // the first coefficient fixed column
	lateBase int // the first phase-1 advice column
}

// at is the slot's cell i on the current row; below is the cell on the next
// row; coef is the coefficient aligned with cell i.
func (s slotCells) at(i int) plonkish.Expr { return plonkish.V(plonkish.AdviceCol(s.base + i)) }
func (s slotCells) below(i int) plonkish.Expr {
	return plonkish.VRot(plonkish.AdviceCol(s.base+i), 1)
}
func (s slotCells) coef(i int) plonkish.Expr {
	return plonkish.V(plonkish.FixedCol(s.coefBase + s.base + i))
}

// late is the slot's phase-1 cell i, in a phase1 entry's second block.
func (s slotCells) late(i int) plonkish.Expr {
	return plonkish.V(plonkish.AdviceCol(s.lateBase + s.base + i))
}

// probe is one lookup of a slot: its name, which Finalize completes with
// the kind and the slot number, and its input expressions.
type probe struct {
	name string
	in   []plonkish.Expr
}

// newCatalog returns the entries of the fixed-layout kinds under cfg.
// Nonlinear and RegisterTable add the nonlinearity and gather entries.
func newCatalog(cfg Config) map[Kind]*entry {
	N := cfg.NumCols
	fp := cfg.FP
	two := ff.NewElement(2)
	shift := plonkish.CI(fp.HalfRange())
	binary := func(op func(x, y plonkish.Expr) plonkish.Expr) *entry {
		return &entry{cells: 3, rows: 1, gate: func(s slotCells) []plonkish.Expr {
			return []plonkish.Expr{plonkish.Sub(s.at(2), op(s.at(0), s.at(1)))}
		}}
	}
	// rounded is 2·num + a − 2·a·c − r: zero when c = Round(num / a) with
	// remainder r.
	rounded := func(num, a, c, r plonkish.Expr) plonkish.Expr {
		return plonkish.Sum(plonkish.Scale(two, num), a,
			plonkish.Neg(plonkish.Scale(two, plonkish.Mul(a, c))), plonkish.Neg(r))
	}
	// divLookups range-checks r, a bound on r given divisor a, and c.
	divLookups := func(r, bound, c plonkish.Expr) []probe {
		return []probe{{"r", []plonkish.Expr{r}}, {"rb", []plonkish.Expr{bound}}, {"c", []plonkish.Expr{plonkish.Sum(c, shift)}}}
	}
	// maxLookups range-checks c − a and c − b for c = max(a, b).
	maxLookups := func(a, b, c plonkish.Expr) []probe {
		return []probe{{"ca", []plonkish.Expr{plonkish.Sub(c, a)}}, {"cb", []plonkish.Expr{plonkish.Sub(c, b)}}}
	}
	// dot is out − (init + Σ x_i·w_i) over n products.
	dot := func(out plonkish.Expr, init []plonkish.Expr, n int, x, w func(i int) plonkish.Expr) []plonkish.Expr {
		terms := append(make([]plonkish.Expr, 0, len(init)+n), init...)
		for i := 0; i < n; i++ {
			terms = append(terms, plonkish.Mul(x(i), w(i)))
		}
		return []plonkish.Expr{plonkish.Sub(out, plonkish.Sum(terms...))}
	}
	// fold is Σ_{j<N} x_j·r^(j+1) for the challenge r, in Horner form.
	r := plonkish.ChallengeExpr{}
	fold := func(x func(j int) plonkish.Expr) plonkish.Expr {
		h := x(N - 1)
		for j := N - 2; j >= 0; j-- {
			h = plonkish.Sum(x(j), plonkish.Mul(r, h))
		}
		return plonkish.Mul(r, h)
	}
	k := fp.LookupBits
	decompPad := make([]int64, k+2)
	decompPad[2+k-1] = 1 // x = 0: x + HalfRange has only the top bit set

	return map[Kind]*entry{
		KindIO:     {cells: 1, rows: 1},
		KindAdd:    binary(func(x, y plonkish.Expr) plonkish.Expr { return plonkish.Sum(x, y) }),
		KindSub:    binary(plonkish.Sub),
		KindMul:    binary(func(x, y plonkish.Expr) plonkish.Expr { return plonkish.Mul(x, y) }),
		KindSqDiff: binary(func(x, y plonkish.Expr) plonkish.Expr { d := plonkish.Sub(x, y); return plonkish.Mul(d, d) }),
		KindSquare: {cells: 2, rows: 1, gate: func(s slotCells) []plonkish.Expr {
			return []plonkish.Expr{plonkish.Sub(s.at(1), plonkish.Mul(s.at(0), s.at(0)))}
		}},
		KindMulC: {cells: 2, rows: 1, coefs: true, gate: func(s slotCells) []plonkish.Expr {
			return []plonkish.Expr{plonkish.Sub(s.at(1), plonkish.Mul(s.coef(0), s.at(0)))}
		}},
		KindSum: {cells: N, rows: 1, gate: func(s slotCells) []plonkish.Expr {
			terms := make([]plonkish.Expr, N-1)
			for i := range terms {
				terms[i] = s.at(i)
			}
			return []plonkish.Expr{plonkish.Sub(s.at(N-1), plonkish.Sum(terms...))}
		}},
		// [x_1..x_n, w_1..w_n, z]
		KindDot: {cells: N, rows: 1, gate: func(s slotCells) []plonkish.Expr {
			n := (N - 1) / 2
			return dot(s.at(2*n), nil, n, s.at, func(i int) plonkish.Expr { return s.at(n + i) })
		}},
		// [x_1..x_n, w_1..w_n, acc, z]
		KindDotBias: {cells: N, rows: 1, gate: func(s slotCells) []plonkish.Expr {
			n := (N - 2) / 2
			return dot(s.at(2*n+1), []plonkish.Expr{s.at(2 * n)}, n, s.at, func(i int) plonkish.Expr { return s.at(n + i) })
		}},
		// [x_1..x_n, z] with weights in coefficient columns.
		KindDotConst: {cells: N, rows: 1, coefs: true, gate: func(s slotCells) []plonkish.Expr {
			return dot(s.at(N-1), nil, N-1, s.at, s.coef)
		}},
		KindDotConstAcc: {cells: N, rows: 1, coefs: true, gate: func(s slotCells) []plonkish.Expr {
			return dot(s.at(N-1), []plonkish.Expr{s.at(N - 2)}, N-2, s.at, s.coef)
		}},
		// [x, c, r] with divisor a in x's coefficient column; the padding
		// a = 1, x = 0, c = 0, r = 1 passes the gate and all three lookups.
		KindDivRound: {cells: 3, rows: 1, coefs: true, rangeTable: true, pad: []int64{0, 0, 1}, padCoef: []int64{1},
			gate: func(s slotCells) []plonkish.Expr {
				return []plonkish.Expr{rounded(s.at(0), s.coef(0), s.at(1), s.at(2))}
			},
			lookups: func(s slotCells) []probe {
				r := s.at(2)
				return divLookups(r, plonkish.Sum(plonkish.Scale(two, s.coef(0)), plonkish.CI(-1), plonkish.Neg(r)), s.at(1))
			}},
		// [a, num, c, r]: a divides num; padded a = 1, r = 1.
		KindVarDiv: {cells: 4, rows: 1, rangeTable: true, pad: []int64{1, 0, 0, 1},
			gate: func(s slotCells) []plonkish.Expr {
				return []plonkish.Expr{rounded(s.at(1), s.at(0), s.at(2), s.at(3))}
			},
			lookups: func(s slotCells) []probe {
				r := s.at(3)
				return divLookups(r, plonkish.Sum(plonkish.Scale(two, s.at(0)), plonkish.CI(-1), plonkish.Neg(r)), s.at(2))
			}},
		// [a, num, c, r]: num = a·c + r; padded a = 1.
		KindDivFloor: {cells: 4, rows: 1, rangeTable: true, pad: []int64{1, 0, 0, 0},
			gate: func(s slotCells) []plonkish.Expr {
				return []plonkish.Expr{plonkish.Sum(s.at(1), plonkish.Neg(plonkish.Mul(s.at(0), s.at(2))), plonkish.Neg(s.at(3)))}
			},
			lookups: func(s slotCells) []probe {
				r := s.at(3)
				return divLookups(r, plonkish.Sum(s.at(0), plonkish.CI(-1), plonkish.Neg(r)), s.at(2))
			}},
		// [a, b, c]: (c − a)(c − b) = 0 and both differences in range.
		KindMax: {cells: 3, rows: 1, rangeTable: true,
			gate: func(s slotCells) []plonkish.Expr {
				c := s.at(2)
				return []plonkish.Expr{plonkish.Mul(plonkish.Sub(c, s.at(0)), plonkish.Sub(c, s.at(1)))}
			},
			lookups: func(s slotCells) []probe { return maxLookups(s.at(0), s.at(1), s.at(2)) }},
		KindRange: {cells: 1, rows: 1, rangeTable: true, lookups: func(s slotCells) []probe {
			return []probe{{"x", []plonkish.Expr{plonkish.Sum(s.at(0), shift)}}}
		}},
		// [x, y, bit_0 .. bit_{k-1}]: x + HalfRange = Σ 2^i·bit_i and
		// y = bit_{k-1}·x.
		KindReluDecomp: {cells: k + 2, rows: 1, pad: decompPad, gate: func(s slotCells) []plonkish.Expr {
			x, y := s.at(0), s.at(1)
			var polys []plonkish.Expr
			recompose := []plonkish.Expr{plonkish.Neg(x), plonkish.CI(-fp.HalfRange())}
			for i := 0; i < k; i++ {
				bit := s.at(2 + i)
				recompose = append(recompose, plonkish.Scale(ff.NewInt64(1<<uint(i)), bit))
				polys = append(polys, plonkish.Mul(bit, plonkish.Sub(bit, plonkish.CI(1))))
			}
			sign := s.at(2 + k - 1)
			return append(polys, plonkish.Sum(recompose...), plonkish.Sub(y, plonkish.Mul(sign, x)))
		}},
		// Two-row variants: the result sits below the slot's first cell.
		KindAddMR: {cells: 2, rows: 2, gate: func(s slotCells) []plonkish.Expr {
			return []plonkish.Expr{plonkish.Sub(s.below(0), plonkish.Sum(s.at(0), s.at(1)))}
		}},
		KindMaxMR: {cells: 2, rows: 2, rangeTable: true,
			gate: func(s slotCells) []plonkish.Expr {
				c := s.below(0)
				return []plonkish.Expr{plonkish.Mul(plonkish.Sub(c, s.at(0)), plonkish.Sub(c, s.at(1)))}
			},
			lookups: func(s slotCells) []probe { return maxLookups(s.at(0), s.at(1), s.below(0)) }},
		// xs on the first row, ws below, the result in the last cell below.
		KindDotMR: {cells: N, rows: 2, gate: func(s slotCells) []plonkish.Expr {
			return dot(s.below(N-1), nil, N-1, s.at, s.below)
		}},
		KindFvFold: {cells: N, rows: 1, phase1: true, gate: func(s slotCells) []plonkish.Expr {
			return []plonkish.Expr{plonkish.Sub(s.late(0), fold(s.at))}
		}},
		KindFvDot: {cells: N, rows: 1, phase1: true, gate: func(s slotCells) []plonkish.Expr {
			return dot(s.late(N-1), nil, N-1, s.at, s.late)
		}},
	}
}

// nlEntry is the entry of a pointwise nonlinearity: slots [x, f(x)] looked
// up in the range column beside the column of f's values. An unused slot
// holds [0, f(0)].
func nlEntry(fp fixedpoint.Params, nl fixedpoint.Nonlinearity) *entry {
	shift := plonkish.CI(fp.HalfRange())
	return &entry{cells: 2, rows: 1, rangeTable: true,
		table: [][]int64{fp.Table(nl)}, pad: []int64{0, fp.Fixed(nl, 0)},
		lookups: func(s slotCells) []probe {
			return []probe{{"", []plonkish.Expr{plonkish.Sum(s.at(0), shift), s.at(1)}}}
		}}
}

// gatherEntry is the entry of gathers from a vocab × dim table (row-major
// data): slots [id, e_0 .. e_{dim-1}] looked up in the table's id column and
// dim value columns. An unused slot holds table row 0.
func gatherEntry(vocab, dim int, data []int64) *entry {
	table := make([][]int64, dim+1)
	for j := range table {
		table[j] = make([]int64, vocab)
	}
	for r := 0; r < vocab; r++ {
		table[0][r] = int64(r)
		for d := 0; d < dim; d++ {
			table[1+d][r] = data[r*dim+d]
		}
	}
	return &entry{cells: dim + 1, rows: 1, table: table, pad: append([]int64{0}, data[:dim]...),
		lookups: func(s slotCells) []probe {
			in := make([]plonkish.Expr, dim+1)
			for j := range in {
				in[j] = s.at(j)
			}
			return []probe{{"", in}}
		}}
}
