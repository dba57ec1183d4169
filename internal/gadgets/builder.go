package gadgets

import (
	"fmt"

	"repro/internal/ff"
	"repro/internal/plonkish"
)

// Value is a fixed-point scalar flowing through the circuit. A Value is
// backed by a canonical grid cell once it has been placed; further uses
// copy-constrain new cells to the canonical one. Constants are backed by
// cells in the committed constants column.
type Value struct {
	b       *Builder
	v       int64
	isConst bool
	placed  bool
	cell    plonkish.Cell
}

// Int64 returns the concrete fixed-point value.
func (v *Value) Int64() int64 { return v.v }

// Float returns the dequantized value.
func (v *Value) Float() float64 { return v.b.cfg.FP.Dequantize(v.v) }

// Builder lays out gadget invocations into rows of an advice grid,
// accumulating selectors, gates, lookups, copy constraints, and constants.
// The builder evaluates eagerly: values are computed, and every failure
// check runs, as gadgets are issued. What a build stores is its mode: a
// full build (NewBuilder) stores everything, so when finished it is both
// the circuit and its witness; a witness build (NewWitnessBuilder) stores
// only what the prover reads; a dry build (NewDryBuilder) stores no cells.
type Builder struct {
	cfg  Config
	err  error
	mode buildMode

	// catalog holds the entry of every kind the builder can lay out.
	catalog map[Kind]*entry

	grid    [][]int64 // [row][col]
	rowKind []Kind    // continuation rows carry their slot's kind too

	// open tracks the current partially filled row per kind.
	open map[Kind]*openRow

	coefs map[int]map[int]int64 // row -> advice col -> coefficient

	constRow map[int64]int
	constVal []int64

	// nlTables (sorted) and gatherTables (in registration order) are the
	// kinds with their own fixed table columns, which Finalize lays out in
	// that order.
	nlTables, gatherTables []Kind

	// late fills the phase-1 cells of one gadget each from the challenge
	// r, into the second advice block ([col][row], col counted from
	// NumCols), when the prover fills phase 1.
	late []func(r ff.Element, block [][]ff.Element)

	copies    [][2]plonkish.Cell
	numCopies int
	instance  []int64
	instCopy  []plonkish.Cell // advice cell exposed at instance row i
}

// buildMode is what a build stores. Every mode advances the same rows,
// constants and public values, runs the same checks and counts copies.
type buildMode uint8

const (
	// fullBuild stores the grid, row padding, coefficients, copies and
	// phase-1 fills: the circuit and its witness, which keygen needs.
	fullBuild buildMode = iota
	// witnessBuild stores the grid, row padding and phase-1 fills, and no
	// copies or coefficients: what a prove reads, which takes the
	// constraint system and the fixed columns from its key.
	witnessBuild
	// dryBuild stores none of them: the row-exact layout simulation of
	// Algorithm 1 prices rows, constants and public values only.
	dryBuild
)

type openRow struct {
	row  int
	slot int
	cap  int
}

// Stats counts gadget invocations, for tests and diagnostics; the cost
// model prices plonkish.ShapeOf's counts of the finished circuit instead.
type Stats struct {
	RowsByKind map[Kind]int
	Ops        map[Kind]int
	Copies     int
	Constants  int
}

// NewBuilder returns a builder for the given configuration.
func NewBuilder(cfg Config) *Builder {
	b := &Builder{
		cfg:      cfg,
		catalog:  newCatalog(cfg),
		open:     map[Kind]*openRow{},
		coefs:    map[int]map[int]int64{},
		constRow: map[int64]int{},
	}
	if err := cfg.Validate(); err != nil {
		b.err = err
	}
	return b
}

// NewWitnessBuilder returns a builder for a prove: it yields the witness
// and the public values, never a constraint system or fixed columns.
func NewWitnessBuilder(cfg Config) *Builder {
	b := NewBuilder(cfg)
	b.mode = witnessBuild
	return b
}

// NewDryBuilder returns a builder that simulates a build: it yields the
// layout's row counts and constraint system, never a witness.
func NewDryBuilder(cfg Config) *Builder {
	b := NewBuilder(cfg)
	b.mode = dryBuild
	return b
}

// Config returns the builder's configuration.
func (b *Builder) Config() Config { return b.cfg }

// Err returns the first error encountered while building.
func (b *Builder) Err() error { return b.err }

// Rows returns the number of grid rows used so far.
func (b *Builder) Rows() int { return len(b.rowKind) }

// Stats returns invocation counts, read off the rows: every row of a kind
// but its open one is full.
func (b *Builder) Stats() Stats {
	s := Stats{RowsByKind: map[Kind]int{}, Ops: map[Kind]int{},
		Copies: b.numCopies, Constants: len(b.constVal)}
	for _, k := range b.rowKind {
		s.RowsByKind[k]++
	}
	for k, rows := range s.RowsByKind {
		o := b.open[k]
		s.Ops[k] = (rows/b.catalog[k].rows-1)*o.cap + o.slot
	}
	return s
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("gadgets: "+format, args...)
	}
}

// Failf records a build failure from a caller above the gadget layer (e.g.
// a layer rejecting an infeasible shape). Like every builder failure, only
// the first error is kept and surfaces through Err; callers should return
// safe degenerate values rather than panic.
func (b *Builder) Failf(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// val wraps a concrete number as an unplaced witness value.
func (b *Builder) val(v int64) *Value { return &Value{b: b, v: v} }

// Witness introduces a private input value.
func (b *Builder) Witness(v int64) *Value { return b.val(v) }

// Constant returns a Value bound to the committed constants column
// (deduplicated).
func (b *Builder) Constant(v int64) *Value {
	row, ok := b.constRow[v]
	if !ok {
		row = len(b.constVal)
		b.constVal = append(b.constVal, v)
		b.constRow[v] = row
	}
	return &Value{b: b, v: v, isConst: true, placed: true,
		cell: plonkish.Cell{Col: plonkish.Col{Kind: plonkish.Fixed, Index: -1}, Row: row}}
	// The constants column index is resolved at Finalize; Index -1 marks it.
}

// slot allocates the next free slot of kind, opening a new row when the
// current one is full. It returns the slot's first row and first column.
func (b *Builder) slot(kind Kind) (row, col int) {
	e := b.catalog[kind]
	o := b.open[kind]
	if o == nil {
		o = &openRow{}
		b.open[kind] = o
	}
	if o.slot == o.cap {
		capacity := b.cfg.NumCols / e.cells
		if capacity == 0 {
			b.fail("gadget %s needs %d cells but only %d columns", kind, e.cells, b.cfg.NumCols)
			capacity = 1
		}
		*o = openRow{row: b.newRows(kind, e, capacity), cap: capacity}
	}
	o.slot++
	return o.row, (o.slot - 1) * e.cells
}

// fullRow allocates a row of a full-row kind (dot products, sums).
func (b *Builder) fullRow(kind Kind) int {
	row, _ := b.slot(kind)
	return row
}

// newRows appends a fresh row of kind, e.rows grid rows tall, and pads its
// first grid row from the entry so unused slots satisfy the kind's gate and
// lookups. It returns the first grid row.
func (b *Builder) newRows(kind Kind, e *entry, slots int) int {
	first := len(b.rowKind)
	for r := 0; r < e.rows; r++ {
		b.rowKind = append(b.rowKind, kind)
	}
	if b.mode == dryBuild {
		return first
	}
	for r := 0; r < e.rows; r++ {
		b.grid = append(b.grid, make([]int64, b.cfg.NumCols))
	}
	for s := 0; s < slots; s++ {
		copy(b.grid[first][s*e.cells:], e.pad)
		for i, c := range e.padCoef {
			b.coef(first, s*e.cells+i, c)
		}
	}
	return first
}

// put writes a Value into a grid cell, adding a copy constraint to the
// value's canonical cell (or adopting this cell as canonical).
func (b *Builder) put(v *Value, row, col int) {
	b.raw(v.v, row, col)
	cell := plonkish.Cell{Col: plonkish.AdviceCol(col), Row: row}
	if v.placed {
		b.equate(cell, v.cell)
		return
	}
	v.placed = true
	v.cell = cell
}

// out creates a new Value canonically placed at a grid cell.
func (b *Builder) out(v int64, row, col int) *Value {
	b.raw(v, row, col)
	return &Value{b: b, v: v, placed: true,
		cell: plonkish.Cell{Col: plonkish.AdviceCol(col), Row: row}}
}

// raw writes a bare witness value (remainders, bits) with no Value handle.
func (b *Builder) raw(v int64, row, col int) {
	if b.mode != dryBuild {
		b.grid[row][col] = v
	}
}

// equate copy-constrains two cells.
func (b *Builder) equate(x, y plonkish.Cell) {
	b.numCopies++
	if b.mode == fullBuild {
		b.copies = append(b.copies, [2]plonkish.Cell{x, y})
	}
}

// coef records a per-row fixed coefficient aligned with an advice column.
func (b *Builder) coef(row, col int, v int64) {
	if b.mode != fullBuild {
		return
	}
	m := b.coefs[row]
	if m == nil {
		m = map[int]int64{}
		b.coefs[row] = m
	}
	m[col] = v
}

// checkRange validates that a value fits the shifted lookup-table input
// range [-2^(k-1), 2^(k-1)).
func (b *Builder) checkRange(v int64, what string) {
	if !b.cfg.FP.InRange(v) {
		b.fail("%s value %d (%.4f) outside lookup range ±%.1f — increase LookupBits",
			what, v, b.cfg.FP.Dequantize(v), b.cfg.FP.MaxFloat())
	}
}

// checkRangeUnsigned validates values looked up without the half-range
// shift (division remainders): valid range is [0, 2^k).
func (b *Builder) checkRangeUnsigned(v int64, what string) {
	if v < 0 || v >= int64(b.cfg.FP.TableSize()) {
		b.fail("%s value %d outside table range [0, %d)", what, v, b.cfg.FP.TableSize())
	}
}

// ensurePlaced gives a value a canonical cell if it has none (placing it in
// an IO row). Used for values that reach outputs without passing through a
// gadget.
func (b *Builder) ensurePlaced(v *Value) {
	if v.placed {
		return
	}
	row, col := b.slot(KindIO)
	b.put(v, row, col)
}

// MakePublic exposes a value in the public instance column and returns its
// instance row.
func (b *Builder) MakePublic(v *Value) int {
	b.ensurePlaced(v)
	idx := len(b.instance)
	b.instance = append(b.instance, v.v)
	b.instCopy = append(b.instCopy, v.cell)
	return idx
}

// PublicInputs returns the accumulated instance values.
func (b *Builder) PublicInputs() []int64 {
	return append([]int64(nil), b.instance...)
}
