package plonkish

import (
	"fmt"
	"testing"

	"repro/internal/ff"
)

// grid is a set of named columns over n rows plus the non-cell leaves, for
// running a Program and the reference tree interpreter side by side.
// Columns not set explicitly are filled on first use with values derived
// from their coordinates, so every (kind, index) reads distinct cells.
type grid struct {
	n          int
	cols       map[Col][]ff.Element
	xs         []ff.Element
	challenges []ff.Element
	arg        [3]ff.Element
}

func newGrid(n int) *grid {
	g := &grid{n: n, cols: map[Col][]ff.Element{}, challenges: make([]ff.Element, 2)}
	for i := 0; i < n; i++ {
		g.xs = append(g.xs, ff.HashToField(fmt.Appendf(nil, "x/%d", i)))
	}
	for i := range g.challenges {
		g.challenges[i] = ff.HashToField(fmt.Appendf(nil, "challenge/%d", i))
	}
	for i := range g.arg {
		g.arg[i] = ff.HashToField(fmt.Appendf(nil, "arg/%d", i))
	}
	return g
}

func (g *grid) col(c Col) []ff.Element {
	if _, ok := g.cols[c]; !ok {
		col := make([]ff.Element, g.n)
		for r := range col {
			col[r] = ff.HashToField(fmt.Appendf(nil, "%v/%d", c, r))
		}
		g.cols[c] = col
	}
	return g.cols[c]
}

// eval runs p at row and returns its outputs.
func (g *grid) eval(p *Program, row int) []ff.Element {
	cols := make([][]ff.Element, len(p.vars))
	for i, q := range p.vars {
		cols[i] = g.col(q.Col)
	}
	mc := p.newMachine(cols, g.n-1, g.challenges, &g.arg)
	mc.run(row, &g.xs[row])
	out := make([]ff.Element, len(p.outputs))
	for i := range out {
		out[i] = *mc.out(i)
	}
	return out
}

// tree is the reference interpreter: the expression's value at row, walked
// node by node with no sharing, a scale always a multiplication, and
// rotations wrapped with a modulo.
func (g *grid) tree(e Expr, row int) ff.Element {
	switch e := e.(type) {
	case ConstExpr:
		return e.V
	case VarExpr:
		return g.col(e.Col)[((row+e.Rot)%g.n+g.n)%g.n]
	case XExpr:
		return g.xs[row]
	case ChallengeExpr:
		return g.challenges[e.Index]
	case ArgChallengeExpr:
		return g.arg[e.Kind]
	case SumExpr:
		var acc ff.Element
		for _, t := range e.Terms {
			v := g.tree(t, row)
			acc.Add(&acc, &v)
		}
		return acc
	case MulExpr:
		acc := ff.One()
		for _, f := range e.Factors {
			v := g.tree(f, row)
			acc.Mul(&acc, &v)
		}
		return acc
	case ScaledExpr:
		v := g.tree(e.E, row)
		return *v.Mul(&v, &e.C)
	}
	panic(fmt.Sprintf("tree: unknown expression %T", e))
}

func TestExprEval(t *testing.T) {
	g := newGrid(2)
	g.cols[AdviceCol(0)] = []ff.Element{ff.NewInt64(3), ff.NewInt64(7)}
	g.cols[AdviceCol(1)] = []ff.Element{ff.NewInt64(4), ff.NewInt64(9)}
	g.xs[0] = ff.NewElement(10)
	g.challenges[0] = ff.NewElement(5)
	g.arg = [3]ff.Element{ff.NewElement(11), ff.NewElement(13), ff.NewElement(17)}
	a, b := V(AdviceCol(0)), V(AdviceCol(1))
	aNext := VRot(AdviceCol(0), 1)
	check := func(e Expr, want int64) {
		t.Helper()
		got := g.eval(Compile(e), 0)[0]
		w := ff.NewInt64(want)
		if !got.Equal(&w) {
			t.Fatalf("eval = %s, want %d", got, want)
		}
	}
	check(a, 3)
	check(aNext, 7)
	check(VRot(AdviceCol(0), -1), 7) // wraps to the last row
	check(Sum(a, b), 7)
	check(Mul(a, b), 12)
	check(Sub(a, b), -1)
	check(Neg(a), -3)
	check(Neg(Neg(a)), 3)
	check(Scale(ff.NewElement(2), b), 8)
	check(Sum(), 0)
	check(Mul(), 1)
	check(XExpr{}, 10)
	check(ChallengeExpr{0}, 5)
	check(ArgChallengeExpr{Theta}, 11)
	check(ArgChallengeExpr{Beta}, 13)
	check(ArgChallengeExpr{Gamma}, 17)
	// Compound: (a + b*X) * beta = (3 + 4*10) * 13.
	check(Mul(Sum(a, Mul(b, XExpr{})), ArgChallengeExpr{Beta}), 43*13)
}

// TestProgramKeepsDistinctCells is the guard against the one way sharing
// could be unsound: two different cells merged into one register. A column
// at two rotations, and one index under two column kinds, must stay apart —
// in the program's vars, its registers and the values read.
func TestProgramKeepsDistinctCells(t *testing.T) {
	a := AdviceCol(0)
	cells := []Expr{V(a), VRot(a, 1), V(FixedCol(0)), V(InstanceCol(0)), VRot(a, -1), V(Col{Kind: LookupM})}
	p := Compile(cells...)
	if len(p.vars) != len(cells) {
		t.Fatalf("%d cells lowered to %d vars", len(cells), len(p.vars))
	}
	seen := map[int32]int{}
	for i, r := range p.outputs {
		if j, dup := seen[r]; dup {
			t.Fatalf("cells %v and %v share register %d", cells[j], cells[i], r)
		}
		seen[r] = i
	}
	g := newGrid(8)
	for row := 0; row < g.n; row++ {
		got := g.eval(p, row)
		for i, e := range cells {
			if want := g.tree(e, row); !got[i].Equal(&want) {
				t.Fatalf("row %d: %v reads %s, want %s", row, e, got[i], want)
			}
		}
	}
}

// TestProgramSharesAndHoists pins the lowering's shape: operand order does
// not defeat sharing, a scale by -1 is a negation, and row-invariant ops
// come first.
func TestProgramSharesAndHoists(t *testing.T) {
	a, b := V(AdviceCol(0)), V(AdviceCol(1))
	beta := ArgChallengeExpr{Kind: Beta}
	p := Compile(Mul(a, b), Mul(b, a), Sum(Mul(a, b), Neg(a)), Mul(Sum(beta, CI(1)), a))
	if p.outputs[0] != p.outputs[1] {
		t.Fatal("a·b and b·a lowered to different registers")
	}
	// var a, var b, mul, neg, add; const 1, beta, add, mul.
	if p.Len() != 9 || p.Varying() != 6 {
		t.Fatalf("program has %d ops, %d varying; want 9 and 6", p.Len(), p.Varying())
	}
	for k, o := range p.ops {
		leaf := o.kind == opConst || o.kind == opArg || o.kind == opVar
		if leaf && (k < p.invariant) != (o.kind != opVar) {
			t.Fatalf("op %d (%v) is on the wrong side of the invariant prefix", k, o)
		}
		if o.kind == opConst && p.consts[o.a] == minusOne {
			t.Fatal("a scale by -1 was lowered to a multiplication")
		}
	}
}

// exprDecoder turns fuzz bytes into an expression tree: every node kind,
// rotations in [-3, 3] and ±u, nested negations and scales, empty sums and
// products, one index under several column kinds, and subtrees reused from
// earlier in the same input so sharing has something to share.
type exprDecoder struct {
	data []byte
	u    int
	pool []Expr
}

func (d *exprDecoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

func (d *exprDecoder) expr(depth int) Expr {
	kind := d.next() % 13
	if depth == 0 && kind >= 5 {
		kind %= 5
	}
	var e Expr
	switch kind {
	case 0:
		e = CI(int64(int8(d.next())))
	case 1:
		rots := []int{-3, -2, -1, 0, 1, 2, 3, d.u, -d.u}
		e = VRot(Col{Kind: ColKind(d.next() % 7), Index: d.next() % 3}, rots[d.next()%len(rots)])
	case 2:
		e = XExpr{}
	case 3:
		e = ChallengeExpr{Index: d.next() % 2}
	case 4:
		e = ArgChallengeExpr{Kind: ArgChallengeKind(d.next() % 3)}
	case 5, 6:
		terms := make([]Expr, d.next()%4)
		for i := range terms {
			terms[i] = d.expr(depth - 1)
		}
		if kind == 5 {
			e = Sum(terms...)
		} else {
			e = Mul(terms...)
		}
	case 7:
		e = Neg(d.expr(depth - 1))
	case 8:
		e = Scale(ff.NewInt64(-1), d.expr(depth-1))
	case 9:
		e = Scale(ff.NewInt64(int64(int8(d.next()))), d.expr(depth-1))
	case 10:
		e = Sub(d.expr(depth-1), d.expr(depth-1))
	default:
		if len(d.pool) == 0 {
			return d.expr(depth - 1)
		}
		return d.pool[d.next()%len(d.pool)]
	}
	d.pool = append(d.pool, e)
	return e
}

// FuzzProgramMatchesTree is the differential check on the lowering: for any
// expressions the decoder builds, every output of the compiled program must
// equal the reference tree interpreter's value, at every row of the grid.
func FuzzProgramMatchesTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 1, 1, 0, 7, 6, 2, 1, 1, 1, 8, 11, 0, 7, 11, 1})
	f.Add([]byte{2, 10, 6, 3, 1, 2, 1, 0, 1, 1, 2, 5, 9, 3, 200, 4, 1, 12, 0, 12, 1, 5, 0})
	f.Add([]byte{1, 7, 8, 7, 9, 255, 1, 6, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 16
		d := &exprDecoder{data: data, u: n - ZKRows}
		exprs := make([]Expr, 1+d.next()%4)
		for i := range exprs {
			exprs[i] = d.expr(5)
		}
		p := Compile(exprs...)
		g := newGrid(n)
		for row := 0; row < n; row++ {
			got := g.eval(p, row)
			for i, e := range exprs {
				if want := g.tree(e, row); !got[i].Equal(&want) {
					t.Fatalf("row %d, expression %d: program %s, tree %s", row, i, got[i], want)
				}
			}
		}
	})
}
