package audit

import (
	"fmt"

	"repro/internal/ff"
	"repro/internal/plonkish"
)

// Circuit is the audit input: the compiled constraint system plus whatever
// synthesized data is available. Fixed enables the activity-dependent passes
// (dead gates/lookups, lookup ranges); Advice enables the unconstrained-cell
// scan; Instance enables the unbound-public scan. DMax/ExtN, when set, are
// the values the prover will actually use (from a proving key) so the audit
// checks against them; zero means "derive them the way keygen does".
type Circuit struct {
	CS       *plonkish.CS
	N        int
	Fixed    [][]ff.Element // user fixed columns, [col][row]
	Advice   [][]ff.Element
	Instance [][]ff.Element

	Model   string
	Backend string

	DMax int
	ExtN int
}

// Analyze runs every audit pass over the circuit and returns the findings
// report. Defects in the circuit are findings, not errors; the error return
// is reserved for inputs the audit cannot analyze at all (nil or non-power-
// of-two shapes).
func Analyze(c Circuit) (*Report, error) {
	cs := c.CS
	if cs == nil {
		return nil, fmt.Errorf("audit: nil constraint system")
	}
	n := c.N
	if n <= 0 || n&(n-1) != 0 || n < 2*plonkish.ZKRows {
		return nil, fmt.Errorf("audit: rows %d must be a power of two >= %d", n, 2*plonkish.ZKRows)
	}
	u := n - plonkish.ZKRows
	rep := &Report{
		Model: c.Model, Backend: c.Backend,
		N: n, K: log2(n), U: u,
		Gates: len(cs.Gates), Lookups: len(cs.Lookups), Copies: len(cs.Copies),
		FixedAudited:   c.Fixed != nil,
		WitnessAudited: c.Advice != nil,
		Findings:       []Finding{},
	}
	if err := cs.Validate(); err != nil {
		rep.add(Finding{Code: CodeInvalidCS, Severity: SeverityError, Row: -1, Message: err.Error()})
		return rep, nil
	}

	az := &analyzer{cs: cs, n: n, u: u, fixed: c.Fixed}
	az.collectRefs()
	az.degreePass(rep, c.DMax, c.ExtN)
	az.blindingPass(rep)
	az.coveragePass(rep)
	uf := az.copyPass(rep)
	az.cellPass(rep, c, uf)
	az.deadColumnPass(rep)
	return rep, nil
}

// collectRefs records every column any constraint, table, copy, or
// permutation opt-in references.
func (az *analyzer) collectRefs() {
	az.refCols = map[plonkish.Col]bool{}
	var exprs []plonkish.Expr
	for _, g := range az.cs.Gates {
		exprs = append(exprs, g.Polys...)
	}
	for _, l := range az.cs.Lookups {
		exprs = append(exprs, l.Selector)
		exprs = append(exprs, l.Inputs...)
		for _, tc := range l.Table {
			az.refCols[tc] = true
		}
	}
	for _, q := range plonkish.CollectQueries(exprs...) {
		az.refCols[q.Col] = true
	}
	for _, cp := range az.cs.Copies {
		az.refCols[cp[0].Col] = true
		az.refCols[cp[1].Col] = true
	}
	for _, i := range az.cs.PermFixed {
		az.refCols[plonkish.FixedCol(i)] = true
	}
}

// degreePass independently recomputes the maximum constraint degree over the
// full flattened list (gates + lookup + permutation argument machinery) and
// checks the two facts the prover's quotient relies on: every constraint has
// degree at most d_max, so t = C/Z_H has degree below pieces·n, pieces =
// QuotientPieces(d_max); and the extended domain has ExtN/N ≥ pieces parts
// of n rows, so the prover can evaluate t on pieces of them and separate
// the pieces.
func (az *analyzer) degreePass(rep *Report, dmax, extN int) {
	cs, n, u := az.cs, az.n, az.u
	if dmax == 0 {
		dmax = cs.Degree()
	}
	if extN == 0 {
		extN = plonkish.ExtDomainSize(n, dmax)
	}

	all := cs.AllConstraints(u)
	// Name constraints for findings: gate polys in order, then argument
	// constraints.
	names := make([]string, 0, len(all))
	for _, g := range cs.Gates {
		for range g.Polys {
			names = append(names, g.Name)
		}
	}
	for len(names) < len(all) {
		names = append(names, "argument")
	}

	maxDeg := 0
	for i, e := range all {
		d := exprDegree(e)
		if d > maxDeg {
			maxDeg = d
		}
		if d > dmax {
			rep.add(Finding{
				Code: CodeDegreeOverflow, Severity: SeverityError,
				Name: names[i], Row: -1,
				Message: fmt.Sprintf("constraint degree %d exceeds the quotient bound d_max=%d; the prover's quotient would not vanish on the domain", d, dmax),
			})
		}
	}
	rep.DMax, rep.MaxConstraintDegree, rep.ExtN = dmax, maxDeg, extN
	if pieces := plonkish.QuotientPieces(dmax); extN/n < pieces {
		rep.add(Finding{
			Code: CodeDegreeOverflow, Severity: SeverityError, Row: -1,
			Message: fmt.Sprintf("extended domain %d has %d parts of %d rows, fewer than the %d the quotient of a d_max=%d circuit is interpolated from: its pieces cannot be separated", extN, extN/n, n, pieces, dmax),
		})
	}
}

// blindingPass checks halo2's blinding_factors rule on every column the
// prover blinds (plonkish.BlindingRows): a column opened at q distinct
// rotations reveals q evaluations plus a share of the batched opening, and
// stays hiding only with at least q + 1 random rows.
func (az *analyzer) blindingPass(rep *Report) {
	var cols []plonkish.Col
	rots := map[plonkish.Col]int{}
	for _, q := range plonkish.CollectQueries(az.cs.AllConstraints(az.u)...) {
		if plonkish.BlindingRows(q.Col.Kind) == 0 {
			continue
		}
		if rots[q.Col] == 0 {
			cols = append(cols, q.Col)
		}
		rots[q.Col]++
	}
	for _, c := range cols {
		if q, b := rots[c], plonkish.BlindingRows(c.Kind); q+1 > b {
			rep.add(Finding{
				Code: CodeBlindingRows, Severity: SeverityError, Col: c.String(), Row: -1,
				Message: fmt.Sprintf("column is opened at %d distinct rotations and needs %d blinding rows to stay hiding; the prover blinds %d", q, q+1, b),
			})
		}
	}
}

// coveragePass walks every gate polynomial and lookup, decides on which
// usable rows each is statically active (its selector product not provably
// zero), and marks the advice/instance cells those active rows read. Gates
// and lookups active on no row at all are dead: the checks they encode are
// silently skipped. Without fixed-column values activity is unknown; the
// pass conservatively treats everything as active (cells still count as
// covered) and skips dead-gate/dead-lookup detection.
func (az *analyzer) coveragePass(rep *Report) {
	cs, n, u := az.cs, az.n, az.u
	az.coveredAdv = make([][]bool, cs.NumAdvice)
	for i := range az.coveredAdv {
		az.coveredAdv[i] = make([]bool, u)
	}
	az.coveredInst = make([][]bool, cs.NumInstance)
	for i := range az.coveredInst {
		az.coveredInst[i] = make([]bool, u)
	}
	mark := func(q plonkish.Query, row int) {
		r := modRow(row+q.Rot, n)
		if r >= u {
			return
		}
		switch q.Col.Kind {
		case plonkish.Advice:
			az.coveredAdv[q.Col.Index][r] = true
		case plonkish.Instance:
			az.coveredInst[q.Col.Index][r] = true
		}
	}

	for _, g := range cs.Gates {
		active := false
		for _, p := range g.Polys {
			pi := newPolyInfo(p)
			for r := 0; r < u; r++ {
				if az.fixed != nil && !az.polyActive(pi, r) {
					continue
				}
				active = true
				for _, q := range pi.witQ {
					mark(q, r)
				}
			}
		}
		if az.fixed != nil && !active {
			rep.add(Finding{
				Code: CodeDeadGate, Severity: SeverityError,
				Name: g.Name, Row: -1,
				Message: "gate is statically zero on every usable row (selector never set); its checks are silently skipped",
			})
		}
	}

	for _, l := range cs.Lookups {
		az.lookupPass(rep, l, mark)
	}
}

// lookupPass handles one lookup: activity + coverage marking, dead-lookup
// detection, table sizing, and the static range-gap analysis.
func (az *analyzer) lookupPass(rep *Report, l plonkish.Lookup, mark func(plonkish.Query, int)) {
	u := az.u
	if l.TableLen <= 0 {
		rep.add(Finding{
			Code: CodeLookupTableOverflow, Severity: SeverityError,
			Name: l.Name, Row: -1,
			Message: "lookup table is empty: every selected row is unsatisfiable",
		})
	} else if l.TableLen > u {
		rep.add(Finding{
			Code: CodeLookupTableOverflow, Severity: SeverityError,
			Name: l.Name, Row: -1,
			Message: fmt.Sprintf("lookup table (%d rows) exceeds usable rows %d", l.TableLen, u),
		})
	}

	selInfo := newPolyInfo(l.Selector)
	inputInfos := make([]*polyInfo, len(l.Inputs))
	for i, in := range l.Inputs {
		inputInfos[i] = newPolyInfo(in)
	}

	var activeRows []int
	for r := 0; r < u; r++ {
		if az.fixed != nil && !az.polyActive(selInfo, r) {
			continue
		}
		activeRows = append(activeRows, r)
		for _, q := range selInfo.witQ {
			mark(q, r)
		}
		for _, pi := range inputInfos {
			for _, q := range pi.witQ {
				mark(q, r)
			}
		}
	}
	if az.fixed == nil {
		// Activity unknown: cells were conservatively covered above, but
		// nothing below can run without fixed values.
		return
	}
	if len(activeRows) == 0 {
		rep.add(Finding{
			Code: CodeDeadLookup, Severity: SeverityError,
			Name: l.Name, Row: -1,
			Message: "lookup selector is statically zero on every usable row; its membership checks are silently skipped",
		})
		return
	}
	if l.TableLen <= 0 || l.TableLen > u {
		return
	}

	// Range-gap analysis: for inputs fully derivable from fixed columns,
	// the per-row value is exact; compare its signed value against the
	// signed range the table column covers. Inputs with witness leaves are
	// unbounded statically and skipped.
	for j, in := range l.Inputs {
		if hasWitnessLeaf(in) {
			continue
		}
		tc := l.Table[j]
		if tc.Index >= len(az.fixed) || len(az.fixed[tc.Index]) < l.TableLen {
			continue
		}
		tmin := signedBig(az.fixed[tc.Index][0])
		tmax := signedBig(az.fixed[tc.Index][0])
		for r := 1; r < l.TableLen; r++ {
			v := signedBig(az.fixed[tc.Index][r])
			if v.Cmp(tmin) < 0 {
				tmin = v
			}
			if v.Cmp(tmax) > 0 {
				tmax = v
			}
		}
		bad, firstRow, firstVal := 0, -1, ""
		for _, r := range activeRows {
			v, ok := az.evalStatic(in, r)
			if !ok {
				continue
			}
			s := signedBig(v)
			if s.Cmp(tmin) < 0 || s.Cmp(tmax) > 0 {
				bad++
				if firstRow < 0 {
					firstRow, firstVal = r, s.String()
				}
			}
		}
		if bad > 0 {
			rep.add(Finding{
				Code: CodeLookupGap, Severity: SeverityError,
				Name: l.Name, Col: tc.String(), Row: firstRow,
				Message: fmt.Sprintf("input %d takes value %s outside the table range [%s, %s] on %d active row(s): unsatisfiable at prove time", j, firstVal, tmin, tmax, bad),
			})
		}
	}
}

// copyGroups is the union-find over copy-constrained cells the cell pass
// interrogates: a cell in a group containing a gate/lookup-covered cell or a
// committed fixed constant is anchored (transitively constrained).
type copyGroups struct {
	idx    map[plonkish.Cell]int
	parent []int
}

func (cg *copyGroups) find(x int) int {
	for cg.parent[x] != x {
		cg.parent[x] = cg.parent[cg.parent[x]]
		x = cg.parent[x]
	}
	return x
}

func (cg *copyGroups) cellIdx(c plonkish.Cell) int {
	if i, ok := cg.idx[c]; ok {
		return i
	}
	i := len(cg.parent)
	cg.idx[c] = i
	cg.parent = append(cg.parent, i)
	return i
}

// copyPass checks the copy-constraint wiring: endpoints outside the usable
// region (keygen would reject, but the audit runs first and localizes the
// cell), self-copies that bind nothing, and duplicated pairs; well-formed
// copies are unioned into groups for the cell pass.
func (az *analyzer) copyPass(rep *Report) *copyGroups {
	cg := &copyGroups{idx: map[plonkish.Cell]int{}}
	seen := map[[2]plonkish.Cell]bool{}
	cellLess := func(a, b plonkish.Cell) bool {
		if a.Col.Kind != b.Col.Kind {
			return a.Col.Kind < b.Col.Kind
		}
		if a.Col.Index != b.Col.Index {
			return a.Col.Index < b.Col.Index
		}
		return a.Row < b.Row
	}
	for _, cp := range az.cs.Copies {
		a, b := cp[0], cp[1]
		out := false
		for _, cell := range cp {
			if cell.Row < 0 || cell.Row >= az.u {
				rep.add(Finding{
					Code: CodeCopyOutOfDomain, Severity: SeverityError,
					Col: cell.Col.String(), Row: cell.Row,
					Message: fmt.Sprintf("copy constraint endpoint outside the usable region [0,%d): the permutation cycle runs through blinding rows", az.u),
				})
				out = true
			}
		}
		if out {
			continue
		}
		if a == b {
			rep.add(Finding{
				Code: CodeOrphanCopy, Severity: SeverityError,
				Col: a.Col.String(), Row: a.Row,
				Message: "copy constraint from a cell to itself: an orphan sigma entry that binds nothing (a real binding was likely intended)",
			})
			continue
		}
		key := [2]plonkish.Cell{a, b}
		if cellLess(b, a) {
			key = [2]plonkish.Cell{b, a}
		}
		if seen[key] {
			rep.add(Finding{
				Code: CodeDuplicateCopy, Severity: SeverityWarn,
				Col: a.Col.String(), Row: a.Row,
				Message: fmt.Sprintf("copy constraint %v@%d = %v@%d appears more than once", a.Col, a.Row, b.Col, b.Row),
			})
			continue
		}
		seen[key] = true
		ra, rb := cg.find(cg.cellIdx(a)), cg.find(cg.cellIdx(b))
		if ra != rb {
			cg.parent[ra] = rb
		}
	}
	return cg
}

// cellPass scans the synthesized witness and public values for cells no
// constraint reaches. A cell is constrained if a statically-active gate or
// lookup reads it, or if it sits in a copy group anchored by such a cell or
// by a committed fixed constant (PermFixed); a nonzero assigned cell with
// neither is free for the prover to replace. Floating copy groups are
// reported once per group, not once per member.
func (az *analyzer) cellPass(rep *Report, c Circuit, cg *copyGroups) {
	anchored := make([]bool, len(cg.parent))
	for cell, i := range cg.idx {
		anch := false
		switch cell.Col.Kind {
		case plonkish.Fixed:
			anch = true // committed constant: fixed at keygen
		case plonkish.Advice:
			anch = cell.Row < az.u && az.coveredAdv[cell.Col.Index][cell.Row]
		case plonkish.Instance:
			anch = cell.Row < az.u && az.coveredInst[cell.Col.Index][cell.Row]
		}
		if anch {
			anchored[cg.find(i)] = true
		}
	}
	inAnchoredGroup := func(cell plonkish.Cell) (inGroup, anch bool) {
		i, ok := cg.idx[cell]
		if !ok {
			return false, false
		}
		return true, anchored[cg.find(i)]
	}

	reported := map[int]bool{}
	for ci := 0; ci < az.cs.NumAdvice && ci < len(c.Advice); ci++ {
		col := c.Advice[ci]
		lim := len(col)
		if lim > az.u {
			lim = az.u
		}
		for r := 0; r < lim; r++ {
			if col[r].IsZero() {
				continue
			}
			rep.CellsScanned++
			if az.coveredAdv[ci][r] {
				continue
			}
			cell := plonkish.Cell{Col: plonkish.AdviceCol(ci), Row: r}
			inGroup, anch := inAnchoredGroup(cell)
			if anch {
				continue
			}
			if inGroup {
				root := cg.find(cg.idx[cell])
				if reported[root] {
					continue
				}
				reported[root] = true
				rep.add(Finding{
					Code: CodeUnconstrainedCell, Severity: SeverityError,
					Col: cell.Col.String(), Row: r,
					Message: "assigned cell sits in a copy group with no gate, lookup, or fixed-constant anchor: the whole group is free",
				})
				continue
			}
			rep.add(Finding{
				Code: CodeUnconstrainedCell, Severity: SeverityError,
				Col: cell.Col.String(), Row: r,
				Message: "assigned cell is read by no gate, no lookup, and no copy constraint: the prover can replace it freely",
			})
		}
	}

	// Public values: a nonzero instance cell must be read by a constraint
	// or bound into an anchored copy group, or the claimed output is not
	// tied to the computation. Zero, uncopied cells are treated as column
	// padding and skipped (a genuine zero output is still copy-bound).
	for ci := 0; ci < az.cs.NumInstance && ci < len(c.Instance); ci++ {
		col := c.Instance[ci]
		lim := len(col)
		if lim > az.u {
			lim = az.u
		}
		for r := 0; r < lim; r++ {
			if col[r].IsZero() {
				continue
			}
			if az.coveredInst[ci][r] {
				continue
			}
			if _, anch := inAnchoredGroup(plonkish.Cell{Col: plonkish.InstanceCol(ci), Row: r}); anch {
				continue
			}
			rep.add(Finding{
				Code: CodeUnboundPublic, Severity: SeverityError,
				Col: plonkish.InstanceCol(ci).String(), Row: r,
				Message: "public-input cell is bound into no anchored copy cycle and read by no constraint: the claimed value is untethered",
			})
		}
	}
}

// deadColumnPass warns about columns nothing references.
func (az *analyzer) deadColumnPass(rep *Report) {
	report := func(col plonkish.Col) {
		if az.refCols[col] {
			return
		}
		rep.add(Finding{
			Code: CodeDeadColumn, Severity: SeverityWarn,
			Col: col.String(), Row: -1,
			Message: "column is referenced by no gate, lookup, table, or copy constraint",
		})
	}
	for i := 0; i < az.cs.NumFixed; i++ {
		report(plonkish.FixedCol(i))
	}
	for i := 0; i < az.cs.NumAdvice; i++ {
		report(plonkish.AdviceCol(i))
	}
	for i := 0; i < az.cs.NumInstance; i++ {
		report(plonkish.InstanceCol(i))
	}
}
