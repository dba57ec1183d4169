package gadgets

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/ff"
	"repro/internal/plonkish"
)

// Artifact is a finalized circuit: the constraint system, fixed column
// values, the witness, and the public instance — everything Setup/Prove
// need. A witness build's artifact leaves CS and Fixed nil.
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
// rows, the public values, the lookup tables, and the constants column must
// all fit in [0, N - ZKRows).
func (b *Builder) MinRows() int {
	rows := max(len(b.rowKind), len(b.instance), len(b.constVal))
	for _, k := range b.usedKinds() {
		if b.catalog[k].rangeTable {
			rows = max(rows, b.cfg.FP.TableSize())
		}
	}
	for _, k := range b.tables() {
		rows = max(rows, len(b.catalog[k].table[0]))
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

// usedKinds returns the kinds with rows, in first-use order.
func (b *Builder) usedKinds() []Kind {
	seen := map[Kind]bool{}
	var out []Kind
	for i, k := range b.rowKind {
		if (i > 0 && k == b.rowKind[i-1]) || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// tables returns the kinds with their own fixed table columns, in column
// order: nonlinearities by name, then gathers in registration order.
func (b *Builder) tables() []Kind { return slices.Concat(b.nlTables, b.gatherTables) }

// columns is where a build's constraint system puts its fixed columns:
// selectors | coefficients | constants | range table | the nonlinearity and
// gather tables. An absent column is -1.
type columns struct {
	selIdx             map[Kind]int
	coefBase           int
	constCol, rangeCol int
	tableCol           map[Kind]int
}

// ConstraintSystem returns the circuit's constraint system: its columns,
// gates, lookups and copies. A dry build stores only the copies that expose
// public values, which is all plonkish.ShapeOf asks of them (whether there
// are any) as long as the build exposes one, as every model build does. A
// witness build has none to give.
func (b *Builder) ConstraintSystem() (*plonkish.CS, error) {
	if b.mode == witnessBuild {
		return nil, errors.New("gadgets: a witness build has no constraint system")
	}
	if b.err != nil {
		return nil, b.err
	}
	cs, _ := b.constraints()
	return cs, nil
}

// constraints builds the constraint system and returns it with its fixed
// column map.
func (b *Builder) constraints() (*plonkish.CS, columns) {
	N := b.cfg.NumCols
	fp := b.cfg.FP

	// Only kinds that constrain something get a selector.
	var kinds []Kind
	cols := columns{selIdx: map[Kind]int{}, constCol: -1, rangeCol: -1, tableCol: map[Kind]int{}}
	coefCols, useRange, phase1 := 0, false, false
	for _, k := range b.usedKinds() {
		e := b.catalog[k]
		if !e.constrains() {
			continue
		}
		cols.selIdx[k] = len(kinds)
		kinds = append(kinds, k)
		// Gates of coefficient-using kinds reference coefficient columns for
		// every slot position, so reserve the full width once any is present.
		if e.coefs {
			coefCols = N
		}
		useRange = useRange || e.rangeTable
		phase1 = phase1 || e.phase1
	}
	cols.coefBase = len(kinds)
	next := cols.coefBase + coefCols
	if len(b.constVal) > 0 {
		cols.constCol = next
		next++
	}
	if useRange {
		cols.rangeCol = next
		next++
	}
	for _, k := range b.tables() {
		cols.tableCol[k] = next
		next += len(b.catalog[k].table)
	}

	cs := &plonkish.CS{
		NumFixed:    next,
		NumAdvice:   N,
		NumInstance: 1,
	}
	if cols.constCol >= 0 {
		cs.PermFixed = []int{cols.constCol}
	}
	// Phase-1 cells take a second block of N advice columns, committed
	// after the one challenge is squeezed.
	if phase1 {
		cs.NumAdvice, cs.NumChallenges = 2*N, 1
		cs.AdvicePhase = make([]int, 2*N)
		for i := N; i < 2*N; i++ {
			cs.AdvicePhase[i] = 1
		}
	}

	// One gate per kind, holding every slot's constraints, then every
	// slot's lookups.
	var lookups []plonkish.Lookup
	for si, k := range kinds {
		e := b.catalog[k]
		sel := plonkish.V(plonkish.FixedCol(si))
		var table []plonkish.Col
		tableLen := fp.TableSize()
		if e.rangeTable {
			table = append(table, plonkish.FixedCol(cols.rangeCol))
		} else if len(e.table) > 0 {
			tableLen = len(e.table[0])
		}
		for j := range e.table {
			table = append(table, plonkish.FixedCol(cols.tableCol[k]+j))
		}
		var polys []plonkish.Expr
		for s := 0; s < N/e.cells; s++ {
			c := slotCells{base: s * e.cells, coefBase: cols.coefBase, lateBase: N}
			if e.gate != nil {
				for _, p := range e.gate(c) {
					polys = append(polys, plonkish.Mul(sel, p))
				}
			}
			if e.lookups != nil {
				for _, p := range e.lookups(c) {
					lookups = append(lookups, plonkish.Lookup{Name: fmt.Sprintf("%s/%s%d", k, p.name, s),
						Selector: sel, Inputs: p.in, Table: table, TableLen: tableLen})
				}
			}
		}
		if len(polys) > 0 {
			cs.AddGate(string(k), polys...)
		}
	}
	cs.Lookups = append(cs.Lookups, lookups...)

	// Copies: builder copies (patching the constants-column placeholder)
	// plus public-instance exposures.
	patch := func(c plonkish.Cell) plonkish.Cell {
		if c.Col.Kind == plonkish.Fixed && c.Col.Index == -1 {
			c.Col.Index = cols.constCol
		}
		return c
	}
	for _, cp := range b.copies {
		cs.Copy(patch(cp[0]), patch(cp[1]))
	}
	for i, cell := range b.instCopy {
		cs.Copy(patch(cell), plonkish.Cell{Col: plonkish.InstanceCol(0), Row: i})
	}
	return cs, cols
}

// Finalize assembles the constraint system, fixed columns, and witness for
// an n-row grid. n must be a power of two at least MinN(). A witness build's
// artifact has only the witness, the instance and the sizes; a dry build
// has no witness and fails.
func (b *Builder) Finalize(n int) (*Artifact, error) {
	if b.mode == dryBuild {
		return nil, errors.New("gadgets: a dry build has no witness to finalize")
	}
	if b.err != nil {
		return nil, b.err
	}
	if n < b.MinN() {
		return nil, fmt.Errorf("gadgets: %d rows insufficient (need %d)", n, b.MinN())
	}
	art := &Artifact{
		Witness:  b.witness(),
		Instance: [][]ff.Element{b.instanceValues()},
		UsedRows: b.MinRows(),
		N:        n,
	}
	if b.mode == witnessBuild {
		return art, nil
	}
	fp := b.cfg.FP
	cs, cols := b.constraints()

	// Fixed column values.
	fixed := make([][]ff.Element, cs.NumFixed)
	for i := range fixed {
		fixed[i] = make([]ff.Element, n)
	}
	for row := 0; row < len(b.rowKind); row += b.catalog[b.rowKind[row]].rows {
		if si, ok := cols.selIdx[b.rowKind[row]]; ok {
			fixed[si][row] = ff.One()
		}
	}
	for row, m := range b.coefs {
		for col, v := range m {
			fixed[cols.coefBase+col][row] = ff.NewInt64(v)
		}
	}
	if cols.constCol >= 0 {
		for row, v := range b.constVal {
			fixed[cols.constCol][row] = ff.NewInt64(v)
		}
	}
	if cols.rangeCol >= 0 {
		for i := 0; i < fp.TableSize(); i++ {
			fixed[cols.rangeCol][i] = ff.NewElement(uint64(i))
		}
	}
	for _, k := range b.tables() {
		for j, col := range b.catalog[k].table {
			for r, v := range col {
				fixed[cols.tableCol[k]+j][r] = ff.NewInt64(v)
			}
		}
	}

	art.CS, art.Fixed = cs, fixed
	return art, nil
}

// witness returns the build's witness: the grid, padded to the prover's n
// rows, then the phase-1 cells.
func (b *Builder) witness() plonkish.Witness {
	N := b.cfg.NumCols
	grid, late := b.grid, b.late
	return plonkish.WitnessFunc(func(phase int, ch []ff.Element, a *plonkish.Assignment) error {
		if phase == 1 {
			for _, fill := range late {
				fill(ch[0], a.Advice[N:])
			}
			return nil
		}
		for row := range grid {
			for col, v := range grid[row] {
				if v != 0 {
					a.Advice[col][row] = ff.NewInt64(v)
				}
			}
		}
		return nil
	})
}

// instanceValues returns the public values as field elements.
func (b *Builder) instanceValues() []ff.Element {
	inst := make([]ff.Element, len(b.instance))
	for i, v := range b.instance {
		inst[i] = ff.NewInt64(v)
	}
	return inst
}
