// Package plonkish implements a halo2-style Plonkish proving system: a 2D
// grid of field elements with a power-of-two number of rows, constrained by
// single-row (or multi-row) custom polynomial gates, copy (permutation)
// constraints, and lookup constraints, proven with either the KZG or IPA
// commitment backend. This is the substrate the ZKML compiler targets; its
// cost behaviour (FFT and MSM counts as a function of rows, columns,
// lookups, and constraint degree) is what the ZKML optimizer models.
package plonkish

import (
	"fmt"
	"sort"

	"repro/internal/ff"
)

// ColKind distinguishes the polynomial families a constraint can reference.
type ColKind int

const (
	// Fixed columns are set at keygen (selectors, lookup tables, weights).
	Fixed ColKind = iota
	// Advice columns are the prover's private witness.
	Advice
	// Instance columns hold public values.
	Instance
	// LookupM is the multiplicity column of a lookup argument.
	LookupM
	// LookupPhi is the log-derivative accumulator of a lookup argument.
	LookupPhi
	// PermZ is a permutation grand-product chunk.
	PermZ
	// PermSigma is a committed permutation sigma polynomial.
	PermSigma
)

// String implements fmt.Stringer.
func (k ColKind) String() string {
	switch k {
	case Fixed:
		return "fixed"
	case Advice:
		return "advice"
	case Instance:
		return "instance"
	case LookupM:
		return "m"
	case LookupPhi:
		return "phi"
	case PermZ:
		return "z"
	case PermSigma:
		return "sigma"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Col identifies a polynomial (user column or argument-internal).
type Col struct {
	Kind  ColKind
	Index int
}

// String renders the column as "kind[index]" (e.g. "advice[3]"), the
// coordinate format the audit findings report uses.
func (c Col) String() string {
	return fmt.Sprintf("%s[%d]", c.Kind, c.Index)
}

// Query is a polynomial queried at a rotation: the value of the polynomial
// at omega^Rot relative to the current row.
type Query struct {
	Col Col
	Rot int
}

// Expr is a multivariate polynomial over grid cells, challenges, and the
// formal variable X (used for permutation identity terms delta^i * X).
type Expr interface {
	// Degree is the total degree counting every column leaf and X as 1.
	Degree() int
	// Eval evaluates the expression through the given context.
	Eval(ctx *EvalCtx) ff.Element
	// walk visits all leaves.
	walk(fn func(Expr))
}

// EvalCtx supplies leaf values during expression evaluation.
type EvalCtx struct {
	// Get returns the value of a column at a rotation from the current row.
	Get func(c Col, rot int) ff.Element
	// X is the evaluation point (for XExpr leaves).
	X ff.Element
	// Challenges holds squeezed verifier challenges by index.
	Challenges []ff.Element
	// Arg holds the protocol-internal challenges indexed by
	// ArgChallengeKind.
	Arg [3]ff.Element
}

// ConstExpr is a constant.
type ConstExpr struct{ V ff.Element }

// VarExpr references a column cell at a rotation.
type VarExpr struct {
	Col Col
	Rot int
}

// XExpr is the formal polynomial X (evaluates to the point itself).
type XExpr struct{}

// ChallengeExpr references a multi-phase verifier challenge (used for
// Freivalds-checked linear layers).
type ChallengeExpr struct{ Index int }

// ArgChallengeKind identifies the lookup/permutation argument challenges.
type ArgChallengeKind int

const (
	// Theta compresses lookup input tuples.
	Theta ArgChallengeKind = iota
	// Beta is the lookup/permutation batching challenge.
	Beta
	// Gamma is the permutation offset challenge.
	Gamma
)

// ArgChallengeExpr references a protocol-internal challenge (theta, beta,
// gamma) squeezed during proving; used by the constraint expressions the
// keygen builds for the lookup and permutation arguments.
type ArgChallengeExpr struct{ Kind ArgChallengeKind }

// SumExpr is a sum of terms.
type SumExpr struct{ Terms []Expr }

// MulExpr is a product of factors.
type MulExpr struct{ Factors []Expr }

// ScaledExpr is a constant multiple of an expression.
type ScaledExpr struct {
	E Expr
	C ff.Element
}

// Degree implements Expr.
func (e ConstExpr) Degree() int        { return 0 }
func (e VarExpr) Degree() int          { return 1 }
func (e XExpr) Degree() int            { return 1 }
func (e ChallengeExpr) Degree() int    { return 0 }
func (e ArgChallengeExpr) Degree() int { return 0 }

// Degree implements Expr.
func (e SumExpr) Degree() int {
	d := 0
	for _, t := range e.Terms {
		if td := t.Degree(); td > d {
			d = td
		}
	}
	return d
}

// Degree implements Expr.
func (e MulExpr) Degree() int {
	d := 0
	for _, f := range e.Factors {
		d += f.Degree()
	}
	return d
}

// Degree implements Expr.
func (e ScaledExpr) Degree() int { return e.E.Degree() }

// Eval implements Expr.
func (e ConstExpr) Eval(ctx *EvalCtx) ff.Element { return e.V }

// Eval implements Expr.
func (e VarExpr) Eval(ctx *EvalCtx) ff.Element { return ctx.Get(e.Col, e.Rot) }

// Eval implements Expr.
func (e XExpr) Eval(ctx *EvalCtx) ff.Element { return ctx.X }

// Eval implements Expr.
func (e ChallengeExpr) Eval(ctx *EvalCtx) ff.Element { return ctx.Challenges[e.Index] }

// Eval implements Expr.
func (e ArgChallengeExpr) Eval(ctx *EvalCtx) ff.Element { return ctx.Arg[e.Kind] }

// Eval implements Expr.
func (e SumExpr) Eval(ctx *EvalCtx) ff.Element {
	var acc ff.Element
	for _, t := range e.Terms {
		v := t.Eval(ctx)
		acc.Add(&acc, &v)
	}
	return acc
}

// Eval implements Expr.
func (e MulExpr) Eval(ctx *EvalCtx) ff.Element {
	if len(e.Factors) == 0 {
		return ff.One()
	}
	acc := e.Factors[0].Eval(ctx)
	for _, f := range e.Factors[1:] {
		v := f.Eval(ctx)
		acc.Mul(&acc, &v)
	}
	return acc
}

// minusOne is the scale factor Neg and Sub build; Eval negates instead of
// multiplying by it.
var minusOne = ff.NewInt64(-1)

// Eval implements Expr.
func (e ScaledExpr) Eval(ctx *EvalCtx) ff.Element {
	v := e.E.Eval(ctx)
	if e.C == minusOne {
		v.Neg(&v)
	} else {
		v.Mul(&v, &e.C)
	}
	return v
}

func (e ConstExpr) walk(fn func(Expr))        { fn(e) }
func (e VarExpr) walk(fn func(Expr))          { fn(e) }
func (e XExpr) walk(fn func(Expr))            { fn(e) }
func (e ChallengeExpr) walk(fn func(Expr))    { fn(e) }
func (e ArgChallengeExpr) walk(fn func(Expr)) { fn(e) }
func (e SumExpr) walk(fn func(Expr)) {
	fn(e)
	for _, t := range e.Terms {
		t.walk(fn)
	}
}
func (e MulExpr) walk(fn func(Expr)) {
	fn(e)
	for _, f := range e.Factors {
		f.walk(fn)
	}
}
func (e ScaledExpr) walk(fn func(Expr)) {
	fn(e)
	e.E.walk(fn)
}

// Expression construction helpers.

// C returns a constant expression.
func C(v ff.Element) Expr { return ConstExpr{V: v} }

// CI returns a small integer constant expression.
func CI(v int64) Expr { return ConstExpr{V: ff.NewInt64(v)} }

// V returns a rotation-0 column reference.
func V(c Col) Expr { return VarExpr{Col: c} }

// VRot returns a rotated column reference.
func VRot(c Col, rot int) Expr { return VarExpr{Col: c, Rot: rot} }

// Sum returns the sum of expressions.
func Sum(terms ...Expr) Expr { return SumExpr{Terms: terms} }

// Mul returns the product of expressions.
func Mul(factors ...Expr) Expr { return MulExpr{Factors: factors} }

// Scale returns c * e.
func Scale(c ff.Element, e Expr) Expr { return ScaledExpr{E: e, C: c} }

// Neg returns -e.
func Neg(e Expr) Expr { return ScaledExpr{E: e, C: minusOne} }

// Sub returns a - b.
func Sub(a, b Expr) Expr { return Sum(a, Neg(b)) }

// WalkExpr visits every node of an expression tree (the expression itself,
// then its children, depth-first). External analysis passes — the audit's
// coverage and degree walks — use it to traverse constraint expressions
// without re-implementing the tree shape.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	e.walk(fn)
}

// CollectQueries returns the sorted set of (column, rotation) pairs
// referenced by the expressions.
func CollectQueries(exprs ...Expr) []Query {
	seen := map[Query]bool{}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		e.walk(func(leaf Expr) {
			if v, ok := leaf.(VarExpr); ok {
				seen[Query{Col: v.Col, Rot: v.Rot}] = true
			}
		})
	}
	out := make([]Query, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Col.Kind != b.Col.Kind {
			return a.Col.Kind < b.Col.Kind
		}
		if a.Col.Index != b.Col.Index {
			return a.Col.Index < b.Col.Index
		}
		return a.Rot < b.Rot
	})
	return out
}
