package audit

import (
	"math/big"

	"repro/internal/ff"
	"repro/internal/plonkish"
)

// The audit reasons about cell values in signed form (the fixed-point
// convention the compiler uses): canonical values above (p-1)/2 are negative.
var (
	modulus     = ff.Modulus()
	halfModulus = new(big.Int).Rsh(ff.Modulus(), 1)
)

// signedBig returns the signed interpretation of a field element.
func signedBig(v ff.Element) *big.Int {
	b := v.BigInt()
	if b.Cmp(halfModulus) > 0 {
		b.Sub(b, modulus)
	}
	return b
}

// analyzer carries per-run state shared by the audit passes.
type analyzer struct {
	cs *plonkish.CS
	n  int
	u  int
	// fixed holds the user fixed columns (selectors, coefficients, tables);
	// nil when the caller has no synthesized circuit, in which case selector
	// activity is unknown and activity-dependent passes degrade gracefully.
	fixed [][]ff.Element

	// coveredAdv/coveredInst mark [col][row] cells read by at least one
	// statically-active gate polynomial or lookup.
	coveredAdv  [][]bool
	coveredInst [][]bool

	// refCols marks columns referenced anywhere (gates, lookups, tables,
	// copies, permutation fixed columns) — the dead-column pass inverts it.
	refCols map[plonkish.Col]bool
}

func modRow(r, n int) int { return ((r % n) + n) % n }

// fixedVal returns the value of user fixed column idx at (wrapped) row and
// whether it is statically known.
func (az *analyzer) fixedVal(idx, row int) (ff.Element, bool) {
	if az.fixed == nil || idx < 0 || idx >= len(az.fixed) {
		return ff.Element{}, false
	}
	col := az.fixed[idx]
	r := modRow(row, az.n)
	if r >= len(col) {
		return ff.Element{}, false
	}
	return col[r], true
}

// staticZero reports whether the expression is provably zero at the given
// row using only statically-known (fixed-column and constant) leaves. It is
// an under-approximation: false means "possibly nonzero". This is how the
// audit decides whether a selector-gated polynomial is active on a row
// without a witness.
func (az *analyzer) staticZero(e plonkish.Expr, row int) bool {
	switch t := e.(type) {
	case plonkish.ConstExpr:
		return t.V.IsZero()
	case plonkish.VarExpr:
		if t.Col.Kind != plonkish.Fixed {
			return false
		}
		v, ok := az.fixedVal(t.Col.Index, row+t.Rot)
		return ok && v.IsZero()
	case plonkish.SumExpr:
		// A sum is statically zero only when every term is; two unknown
		// terms could cancel, but that cannot be proven statically.
		for _, tm := range t.Terms {
			if !az.staticZero(tm, row) {
				return false
			}
		}
		return true
	case plonkish.MulExpr:
		for _, f := range t.Factors {
			if az.staticZero(f, row) {
				return true
			}
		}
		return false
	case plonkish.ScaledExpr:
		return t.C.IsZero() || az.staticZero(t.E, row)
	default:
		// XExpr, ChallengeExpr, ArgChallengeExpr: never statically zero.
		return false
	}
}

// polyInfo caches the per-polynomial query split and the activity memo. The
// activity of a polynomial at a row depends only on which of its fixed-column
// queries are zero there, so rows sharing that zero-pattern share one
// staticZero evaluation: the memo key is the pattern as a bitmask (direct
// evaluation when a polynomial has more than 64 fixed queries).
type polyInfo struct {
	expr    plonkish.Expr
	witQ    []plonkish.Query // advice + instance queries
	fixQ    []plonkish.Query
	memo    map[uint64]bool
	useMemo bool
}

func newPolyInfo(e plonkish.Expr) *polyInfo {
	pi := &polyInfo{expr: e}
	for _, q := range plonkish.CollectQueries(e) {
		if q.Col.Kind == plonkish.Fixed {
			pi.fixQ = append(pi.fixQ, q)
		} else {
			pi.witQ = append(pi.witQ, q)
		}
	}
	pi.useMemo = len(pi.fixQ) <= 64
	if pi.useMemo {
		pi.memo = map[uint64]bool{}
	}
	return pi
}

// polyActive reports whether the polynomial is possibly-nonzero at the row.
func (az *analyzer) polyActive(pi *polyInfo, row int) bool {
	if !pi.useMemo {
		return !az.staticZero(pi.expr, row)
	}
	var sig uint64
	for i, q := range pi.fixQ {
		if v, ok := az.fixedVal(q.Col.Index, row+q.Rot); ok && v.IsZero() {
			sig |= 1 << uint(i)
		}
	}
	if act, ok := pi.memo[sig]; ok {
		return act
	}
	act := !az.staticZero(pi.expr, row)
	pi.memo[sig] = act
	return act
}

// hasWitnessLeaf reports whether the expression references anything not
// statically derivable from fixed columns: advice/instance cells, the formal
// X, or a challenge. Lookup inputs containing such leaves are unbounded for
// the range pass and are skipped.
func hasWitnessLeaf(e plonkish.Expr) bool {
	found := false
	plonkish.WalkExpr(e, func(leaf plonkish.Expr) {
		switch t := leaf.(type) {
		case plonkish.VarExpr:
			if t.Col.Kind != plonkish.Fixed {
				found = true
			}
		case plonkish.XExpr, plonkish.ChallengeExpr, plonkish.ArgChallengeExpr:
			found = true
		}
	})
	return found
}

// evalStatic evaluates a fully-static expression (constants and fixed
// columns only) at a row. ok is false when any leaf is unknown.
func (az *analyzer) evalStatic(e plonkish.Expr, row int) (ff.Element, bool) {
	switch t := e.(type) {
	case plonkish.ConstExpr:
		return t.V, true
	case plonkish.VarExpr:
		if t.Col.Kind != plonkish.Fixed {
			return ff.Element{}, false
		}
		return az.fixedVal(t.Col.Index, row+t.Rot)
	case plonkish.SumExpr:
		var acc ff.Element
		for _, tm := range t.Terms {
			v, ok := az.evalStatic(tm, row)
			if !ok {
				return ff.Element{}, false
			}
			acc.Add(&acc, &v)
		}
		return acc, true
	case plonkish.MulExpr:
		acc := ff.One()
		for _, f := range t.Factors {
			v, ok := az.evalStatic(f, row)
			if !ok {
				return ff.Element{}, false
			}
			acc.Mul(&acc, &v)
		}
		return acc, true
	case plonkish.ScaledExpr:
		v, ok := az.evalStatic(t.E, row)
		if !ok {
			return ff.Element{}, false
		}
		v.Mul(&v, &t.C)
		return v, true
	default:
		return ff.Element{}, false
	}
}

// exprDegree recomputes an expression's total degree independently of
// Expr.Degree(), so the degree-overflow pass cross-checks the bound the
// prover sizes the quotient domain with rather than trusting it.
func exprDegree(e plonkish.Expr) int {
	switch t := e.(type) {
	case plonkish.ConstExpr, plonkish.ChallengeExpr, plonkish.ArgChallengeExpr:
		return 0
	case plonkish.VarExpr, plonkish.XExpr:
		return 1
	case plonkish.SumExpr:
		d := 0
		for _, tm := range t.Terms {
			if td := exprDegree(tm); td > d {
				d = td
			}
		}
		return d
	case plonkish.MulExpr:
		d := 0
		for _, f := range t.Factors {
			d += exprDegree(f)
		}
		return d
	case plonkish.ScaledExpr:
		return exprDegree(t.E)
	default:
		return 0
	}
}
