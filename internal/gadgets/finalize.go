package gadgets

import (
	"fmt"
	"strings"

	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/plonkish"
)

// Artifact is a finalized circuit: the constraint system, fixed column
// values, the witness, and the public instance — everything Setup/Prove
// need.
type Artifact struct {
	CS       *plonkish.CS
	Fixed    [][]ff.Element
	Witness  plonkish.Witness
	Instance [][]ff.Element
	// UsedRows is the number of grid rows the layout occupies; N is the
	// chosen power-of-two grid height.
	UsedRows int
	N        int
}

// MinRows returns the minimum usable rows this build needs: the layout
// rows, the lookup tables, and the constants column must all fit in
// [0, N - ZKRows).
func (b *Builder) MinRows() int {
	rows := len(b.grid)
	if b.needsRangeTable() {
		if t := b.cfg.FP.TableSize(); t > rows {
			rows = t
		}
	}
	if c := len(b.constVal); c > rows {
		rows = c
	}
	for _, t := range b.gatherTables {
		if t.vocab > rows {
			rows = t.vocab
		}
	}
	return rows
}

// MinN returns the smallest power-of-two grid height that fits this build
// (the paper: "the number of rows must be a power of two").
func (b *Builder) MinN() int {
	need := b.MinRows() + plonkish.ZKRows
	if need < 2*plonkish.ZKRows {
		need = 2 * plonkish.ZKRows
	}
	n := 1
	for n < need {
		n <<= 1
	}
	return n
}

func (b *Builder) needsRangeTable() bool {
	if b.rangeUsed || len(b.nls) > 0 {
		return true
	}
	for kind := range b.stats.RowsByKind {
		switch kind {
		case KindDivRound, KindVarDiv, KindDivFloor, KindMax, KindMaxMR:
			return true
		}
	}
	return false
}

// usedKinds returns the gadget kinds with allocated rows, in first-use
// order, excluding IO and continuation rows.
func (b *Builder) usedKinds() []Kind {
	seen := map[Kind]bool{}
	var out []Kind
	for _, k := range b.rowKind {
		if k == KindIO || strings.HasSuffix(string(k), ":cont") || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// Finalize assembles the constraint system, fixed columns, and witness for
// an n-row grid. n must be a power of two at least MinN().
func (b *Builder) Finalize(n int) (*Artifact, error) {
	if b.err != nil {
		return nil, b.err
	}
	if n < b.MinN() {
		return nil, fmt.Errorf("gadgets: %d rows insufficient (need %d)", n, b.MinN())
	}
	u := n - plonkish.ZKRows
	fp := b.cfg.FP
	kinds := b.usedKinds()

	// Fixed column map: selectors | coefficients | constants | range
	// table | one output column per nonlinearity.
	selIdx := map[Kind]int{}
	for i, k := range kinds {
		selIdx[k] = i
	}
	// Gates of coefficient-using kinds reference coefficient columns for
	// every slot position, so reserve the full width once any is present.
	for _, k := range kinds {
		switch k {
		case KindMulC, KindDivRound, KindDotConst, KindDotConstAcc:
			if b.coefUsed < b.cfg.NumCols {
				b.coefUsed = b.cfg.NumCols
			}
		}
	}
	coefBase := len(kinds)
	constCol := -1
	next := coefBase + b.coefUsed
	if len(b.constVal) > 0 {
		constCol = next
		next++
	}
	rangeCol := -1
	if b.needsRangeTable() {
		rangeCol = next
		next++
	}
	nlCol := map[fixedpoint.Nonlinearity]int{}
	for _, nl := range sortedNLs(b.nls) {
		nlCol[nl] = next
		next++
	}
	gatherBase := map[string]int{}
	for _, name := range b.gatherOrder {
		gatherBase[name] = next
		next += b.gatherTables[name].dim + 1
	}
	numFixed := next

	cs := &plonkish.CS{
		NumFixed:    numFixed,
		NumAdvice:   b.cfg.NumCols,
		NumInstance: 1,
	}
	if constCol >= 0 {
		cs.PermFixed = []int{constCol}
	}

	b.buildGates(cs, selIdx, coefBase)
	b.buildLookups(cs, selIdx, rangeCol, nlCol, gatherBase)

	// Copies: builder copies (patching the constants-column placeholder)
	// plus public-instance exposures.
	patch := func(c plonkish.Cell) plonkish.Cell {
		if c.Col.Kind == plonkish.Fixed && c.Col.Index == -1 {
			c.Col.Index = constCol
		}
		return c
	}
	for _, cp := range b.copies {
		cs.Copy(patch(cp[0]), patch(cp[1]))
	}
	for i, cell := range b.instCopy {
		cs.Copy(patch(cell), plonkish.Cell{Col: plonkish.InstanceCol(0), Row: i})
	}

	// Fixed column values.
	fixed := make([][]ff.Element, numFixed)
	for i := range fixed {
		fixed[i] = make([]ff.Element, n)
	}
	for row, kind := range b.rowKind {
		if si, ok := selIdx[kind]; ok {
			fixed[si][row] = ff.One()
		}
	}
	for row, m := range b.coefs {
		for col, v := range m {
			fixed[coefBase+col][row] = ff.NewInt64(v)
		}
	}
	if constCol >= 0 {
		for row, v := range b.constVal {
			fixed[constCol][row] = ff.NewInt64(v)
		}
	}
	if rangeCol >= 0 {
		for i := 0; i < fp.TableSize(); i++ {
			fixed[rangeCol][i] = ff.NewElement(uint64(i))
		}
	}
	for nl, col := range nlCol {
		for i, v := range fp.Table(nl) {
			fixed[col][i] = ff.NewInt64(v)
		}
	}
	for name, base := range gatherBase {
		t := b.gatherTables[name]
		for r := 0; r < t.vocab; r++ {
			fixed[base][r] = ff.NewElement(uint64(r))
			for d := 0; d < t.dim; d++ {
				fixed[base+1+d][r] = ff.NewInt64(t.data[r*t.dim+d])
			}
		}
	}

	// Witness: the grid, padded to n rows.
	grid := b.grid
	witness := plonkish.WitnessFunc(func(phase int, ch []ff.Element, a *plonkish.Assignment) error {
		for row := range grid {
			for col, v := range grid[row] {
				if v != 0 {
					a.Advice[col][row] = ff.NewInt64(v)
				}
			}
		}
		return nil
	})

	inst := make([]ff.Element, len(b.instance))
	for i, v := range b.instance {
		inst[i] = ff.NewInt64(v)
	}
	if len(inst) > u {
		return nil, fmt.Errorf("gadgets: %d public values exceed usable rows %d", len(inst), u)
	}

	return &Artifact{
		CS:       cs,
		Fixed:    fixed,
		Witness:  witness,
		Instance: [][]ff.Element{inst},
		UsedRows: b.MinRows(),
		N:        n,
	}, nil
}

// buildGates adds one gate (with one constraint per slot) per gadget kind.
func (b *Builder) buildGates(cs *plonkish.CS, selIdx map[Kind]int, coefBase int) {
	N := b.cfg.NumCols
	fp := b.cfg.FP
	adv := func(i int) plonkish.Expr { return plonkish.V(plonkish.AdviceCol(i)) }
	advRot := func(i, r int) plonkish.Expr { return plonkish.VRot(plonkish.AdviceCol(i), r) }
	coefOf := func(i int) plonkish.Expr { return plonkish.V(plonkish.FixedCol(coefBase + i)) }

	for _, kind := range b.usedKinds() {
		si := selIdx[kind]
		sel := plonkish.V(plonkish.FixedCol(si))
		var polys []plonkish.Expr
		switch {
		case kind == KindAdd:
			for s := 0; s*3+2 < N; s++ {
				polys = append(polys, plonkish.Sub(adv(s*3+2), plonkish.Sum(adv(s*3), adv(s*3+1))))
			}
		case kind == KindSub:
			for s := 0; s*3+2 < N; s++ {
				polys = append(polys, plonkish.Sub(adv(s*3+2), plonkish.Sub(adv(s*3), adv(s*3+1))))
			}
		case kind == KindMul:
			for s := 0; s*3+2 < N; s++ {
				polys = append(polys, plonkish.Sub(adv(s*3+2), plonkish.Mul(adv(s*3), adv(s*3+1))))
			}
		case kind == KindSquare:
			for s := 0; s*2+1 < N; s++ {
				polys = append(polys, plonkish.Sub(adv(s*2+1), plonkish.Mul(adv(s*2), adv(s*2))))
			}
		case kind == KindSqDiff:
			for s := 0; s*3+2 < N; s++ {
				d := plonkish.Sub(adv(s*3), adv(s*3+1))
				polys = append(polys, plonkish.Sub(adv(s*3+2), plonkish.Mul(d, d)))
			}
		case kind == KindMulC:
			for s := 0; s*2+1 < N; s++ {
				polys = append(polys, plonkish.Sub(adv(s*2+1), plonkish.Mul(coefOf(s*2), adv(s*2))))
			}
		case kind == KindSum:
			terms := make([]plonkish.Expr, N-1)
			for i := 0; i < N-1; i++ {
				terms[i] = adv(i)
			}
			polys = append(polys, plonkish.Sub(adv(N-1), plonkish.Sum(terms...)))
		case kind == KindDot:
			n := (N - 1) / 2
			terms := make([]plonkish.Expr, n)
			for i := 0; i < n; i++ {
				terms[i] = plonkish.Mul(adv(i), adv(n+i))
			}
			polys = append(polys, plonkish.Sub(adv(2*n), plonkish.Sum(terms...)))
		case kind == KindDotBias:
			n := (N - 2) / 2
			terms := make([]plonkish.Expr, 0, n+1)
			terms = append(terms, adv(2*n))
			for i := 0; i < n; i++ {
				terms = append(terms, plonkish.Mul(adv(i), adv(n+i)))
			}
			polys = append(polys, plonkish.Sub(adv(2*n+1), plonkish.Sum(terms...)))
		case kind == KindDotConst:
			terms := make([]plonkish.Expr, N-1)
			for i := 0; i < N-1; i++ {
				terms[i] = plonkish.Mul(adv(i), coefOf(i))
			}
			polys = append(polys, plonkish.Sub(adv(N-1), plonkish.Sum(terms...)))
		case kind == KindDotConstAcc:
			terms := make([]plonkish.Expr, 0, N-1)
			terms = append(terms, adv(N-2))
			for i := 0; i < N-2; i++ {
				terms = append(terms, plonkish.Mul(adv(i), coefOf(i)))
			}
			polys = append(polys, plonkish.Sub(adv(N-1), plonkish.Sum(terms...)))
		case kind == KindDivRound:
			// 2x + a - 2a*c - r = 0 over [x, c, r] with coefficient a.
			for s := 0; s*3+2 < N; s++ {
				x, c, r := adv(s*3), adv(s*3+1), adv(s*3+2)
				a := coefOf(s * 3)
				polys = append(polys, plonkish.Sum(
					plonkish.Scale(ff.NewElement(2), x), a,
					plonkish.Neg(plonkish.Scale(ff.NewElement(2), plonkish.Mul(a, c))),
					plonkish.Neg(r)))
			}
		case kind == KindVarDiv:
			for s := 0; s*4+3 < N; s++ {
				a, num, c, r := adv(s*4), adv(s*4+1), adv(s*4+2), adv(s*4+3)
				polys = append(polys, plonkish.Sum(
					plonkish.Scale(ff.NewElement(2), num), a,
					plonkish.Neg(plonkish.Scale(ff.NewElement(2), plonkish.Mul(a, c))),
					plonkish.Neg(r)))
			}
		case kind == KindDivFloor:
			for s := 0; s*4+3 < N; s++ {
				a, num, c, r := adv(s*4), adv(s*4+1), adv(s*4+2), adv(s*4+3)
				polys = append(polys, plonkish.Sum(num,
					plonkish.Neg(plonkish.Mul(a, c)), plonkish.Neg(r)))
			}
		case kind == KindMax:
			for s := 0; s*3+2 < N; s++ {
				a, bb, c := adv(s*3), adv(s*3+1), adv(s*3+2)
				polys = append(polys, plonkish.Mul(plonkish.Sub(c, a), plonkish.Sub(c, bb)))
			}
		case kind == KindReluDecomp:
			k := fp.LookupBits
			cells := k + 2
			for s := 0; (s+1)*cells <= N; s++ {
				base := s * cells
				x, y := adv(base), adv(base+1)
				recompose := []plonkish.Expr{plonkish.Neg(x), plonkish.CI(-fp.HalfRange())}
				for i := 0; i < k; i++ {
					bit := adv(base + 2 + i)
					recompose = append(recompose, plonkish.Scale(ff.NewInt64(1<<uint(i)), bit))
					polys = append(polys, plonkish.Mul(bit, plonkish.Sub(bit, plonkish.CI(1))))
				}
				polys = append(polys, plonkish.Sum(recompose...))
				sign := adv(base + 2 + k - 1)
				polys = append(polys, plonkish.Sub(y, plonkish.Mul(sign, x)))
			}
		case kind == KindAddMR:
			for s := 0; s*2+1 < N; s++ {
				polys = append(polys, plonkish.Sub(advRot(s*2, 1), plonkish.Sum(adv(s*2), adv(s*2+1))))
			}
		case kind == KindMaxMR:
			for s := 0; s*2+1 < N; s++ {
				c := advRot(s*2, 1)
				polys = append(polys, plonkish.Mul(plonkish.Sub(c, adv(s*2)), plonkish.Sub(c, adv(s*2+1))))
			}
		case kind == KindDotMR:
			n := N - 1
			terms := make([]plonkish.Expr, n)
			for i := 0; i < n; i++ {
				terms[i] = plonkish.Mul(adv(i), advRot(i, 1))
			}
			polys = append(polys, plonkish.Sub(advRot(N-1, 1), plonkish.Sum(terms...)))
		case kind == KindRange:
			// Lookup only; no polynomial gate.
		default:
			_, isNL := nlOfKind(kind)
			_, isGather := gatherOfKind(kind)
			if !isNL && !isGather {
				panic(fmt.Sprintf("gadgets: no gate builder for kind %q", kind))
			}
			// Nonlinearities and gathers are lookup-only.
		}
		if len(polys) == 0 {
			continue
		}
		gated := make([]plonkish.Expr, len(polys))
		for i, p := range polys {
			gated[i] = plonkish.Mul(sel, p)
		}
		cs.AddGate(string(kind), gated...)
	}
}

// buildLookups adds the lookup arguments: range checks for the division and
// max gadgets, standalone range assertions, and the nonlinearity tables.
func (b *Builder) buildLookups(cs *plonkish.CS, selIdx map[Kind]int, rangeCol int, nlCol map[fixedpoint.Nonlinearity]int, gatherBase map[string]int) {
	N := b.cfg.NumCols
	fp := b.cfg.FP
	adv := func(i int) plonkish.Expr { return plonkish.V(plonkish.AdviceCol(i)) }
	advRot := func(i, r int) plonkish.Expr { return plonkish.VRot(plonkish.AdviceCol(i), r) }
	shift := plonkish.CI(fp.HalfRange())
	tblLen := fp.TableSize()

	addRange := func(kind Kind, name string, in plonkish.Expr) {
		cs.AddLookup(plonkish.Lookup{
			Name:     string(kind) + "/" + name,
			Selector: plonkish.V(plonkish.FixedCol(selIdx[kind])),
			Inputs:   []plonkish.Expr{in},
			Table:    []plonkish.Col{plonkish.FixedCol(rangeCol)},
			TableLen: tblLen,
		})
	}

	for _, kind := range b.usedKinds() {
		si := selIdx[kind]
		switch {
		case kind == KindDivRound:
			coefBase := len(selIdx)
			coefOf := func(i int) plonkish.Expr { return plonkish.V(plonkish.FixedCol(coefBase + i)) }
			for s := 0; s*3+2 < N; s++ {
				c, r := adv(s*3+1), adv(s*3+2)
				a := coefOf(s * 3)
				addRange(kind, fmt.Sprintf("r%d", s), r)
				addRange(kind, fmt.Sprintf("rb%d", s), plonkish.Sum(
					plonkish.Scale(ff.NewElement(2), a), plonkish.CI(-1), plonkish.Neg(r)))
				addRange(kind, fmt.Sprintf("c%d", s), plonkish.Sum(c, shift))
			}
		case kind == KindVarDiv:
			for s := 0; s*4+3 < N; s++ {
				a, c, r := adv(s*4), adv(s*4+2), adv(s*4+3)
				addRange(kind, fmt.Sprintf("r%d", s), r)
				addRange(kind, fmt.Sprintf("rb%d", s), plonkish.Sum(
					plonkish.Scale(ff.NewElement(2), a), plonkish.CI(-1), plonkish.Neg(r)))
				addRange(kind, fmt.Sprintf("c%d", s), plonkish.Sum(c, shift))
			}
		case kind == KindDivFloor:
			for s := 0; s*4+3 < N; s++ {
				a, c, r := adv(s*4), adv(s*4+2), adv(s*4+3)
				addRange(kind, fmt.Sprintf("r%d", s), r)
				addRange(kind, fmt.Sprintf("rb%d", s), plonkish.Sum(a, plonkish.CI(-1), plonkish.Neg(r)))
				addRange(kind, fmt.Sprintf("c%d", s), plonkish.Sum(c, shift))
			}
		case kind == KindMax:
			for s := 0; s*3+2 < N; s++ {
				a, bb, c := adv(s*3), adv(s*3+1), adv(s*3+2)
				addRange(kind, fmt.Sprintf("ca%d", s), plonkish.Sub(c, a))
				addRange(kind, fmt.Sprintf("cb%d", s), plonkish.Sub(c, bb))
			}
		case kind == KindMaxMR:
			for s := 0; s*2+1 < N; s++ {
				c := advRot(s*2, 1)
				addRange(kind, fmt.Sprintf("ca%d", s), plonkish.Sub(c, adv(s*2)))
				addRange(kind, fmt.Sprintf("cb%d", s), plonkish.Sub(c, adv(s*2+1)))
			}
		case kind == KindRange:
			for s := 0; s < N; s++ {
				addRange(kind, fmt.Sprintf("x%d", s), plonkish.Sum(adv(s), shift))
			}
		default:
			if name, ok := gatherOfKind(kind); ok {
				t := b.gatherTables[name]
				base := gatherBase[name]
				cells := t.dim + 1
				for s := 0; (s+1)*cells <= N; s++ {
					inputs := make([]plonkish.Expr, cells)
					table := make([]plonkish.Col, cells)
					for j := 0; j < cells; j++ {
						inputs[j] = adv(s*cells + j)
						table[j] = plonkish.FixedCol(base + j)
					}
					cs.AddLookup(plonkish.Lookup{
						Name:     string(kind) + fmt.Sprintf("/%d", s),
						Selector: plonkish.V(plonkish.FixedCol(si)),
						Inputs:   inputs,
						Table:    table,
						TableLen: t.vocab,
					})
				}
				continue
			}
			nl, ok := nlOfKind(kind)
			if !ok {
				continue
			}
			for s := 0; s*2+1 < N; s++ {
				cs.AddLookup(plonkish.Lookup{
					Name:     string(kind) + fmt.Sprintf("/%d", s),
					Selector: plonkish.V(plonkish.FixedCol(si)),
					Inputs:   []plonkish.Expr{plonkish.Sum(adv(s*2), shift), adv(s*2 + 1)},
					Table:    []plonkish.Col{plonkish.FixedCol(rangeCol), plonkish.FixedCol(nlCol[nl])},
					TableLen: tblLen,
				})
			}
		}
	}
}
