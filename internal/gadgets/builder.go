package gadgets

import (
	"fmt"

	"repro/internal/fixedpoint"
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
// The builder evaluates eagerly: values are computed as gadgets are issued,
// so a finished build is simultaneously the circuit shape and its witness.
type Builder struct {
	cfg Config
	err error

	grid    [][]int64 // [row][col]
	rowKind []Kind

	// open tracks the current partially filled row per batched kind.
	open map[Kind]*openRow

	selIdx   map[Kind]int
	selOrder []Kind

	coefs    map[int]map[int]int64 // row -> advice col -> coefficient
	coefUsed int                   // number of coefficient columns

	constRow map[int64]int
	constVal []int64

	// gatherTables holds committed embedding tables, keyed by name; each
	// gets dim+1 fixed columns and a gather gadget kind.
	gatherTables map[string]*gatherTable
	gatherOrder  []string

	copies    [][2]plonkish.Cell
	instance  []int64
	instCopy  []plonkish.Cell // advice cell exposed at instance row i
	nls       map[fixedpoint.Nonlinearity]bool
	rangeUsed bool

	stats Stats
}

type openRow struct {
	row  int
	slot int
	cap  int
}

// Stats counts gadget invocations, for tests and diagnostics; the cost
// model prices plonkish.ShapeOf's counts of the finished circuit instead.
type Stats struct {
	RowsByKind  map[Kind]int
	Ops         map[Kind]int
	Copies      int
	Constants   int
	LookupSites int
}

// NewBuilder returns a builder for the given configuration.
func NewBuilder(cfg Config) *Builder {
	b := &Builder{
		cfg:          cfg,
		open:         map[Kind]*openRow{},
		selIdx:       map[Kind]int{},
		coefs:        map[int]map[int]int64{},
		constRow:     map[int64]int{},
		gatherTables: map[string]*gatherTable{},
		nls:          map[fixedpoint.Nonlinearity]bool{},
		stats:        Stats{RowsByKind: map[Kind]int{}, Ops: map[Kind]int{}},
	}
	if err := cfg.Validate(); err != nil {
		b.err = err
	}
	return b
}

// Config returns the builder's configuration.
func (b *Builder) Config() Config { return b.cfg }

// Err returns the first error encountered while building.
func (b *Builder) Err() error { return b.err }

// Rows returns the number of grid rows used so far.
func (b *Builder) Rows() int { return len(b.grid) }

// Stats returns invocation counts.
func (b *Builder) Stats() Stats {
	s := b.stats
	s.Copies = len(b.copies)
	s.Constants = len(b.constVal)
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

// newRow appends a fresh row owned by kind, prefilled with the kind's
// padding pattern so partially used rows still satisfy the kind's gates and
// lookups.
func (b *Builder) newRow(kind Kind) int {
	row := make([]int64, b.cfg.NumCols)
	b.padRow(kind, row, len(b.grid))
	b.grid = append(b.grid, row)
	b.rowKind = append(b.rowKind, kind)
	b.stats.RowsByKind[kind]++
	return len(b.grid) - 1
}

// slot allocates the next free slot in a row of the given kind, opening a
// new row when the current one is full. slotCells is the number of advice
// cells per slot; rowsSpan > 1 allocates trailing continuation rows
// (multi-row gadgets).
func (b *Builder) slot(kind Kind, slotCells, rowsSpan int) (int, int) {
	capacity := b.cfg.NumCols / slotCells
	if capacity == 0 {
		b.fail("gadget %s needs %d cells but only %d columns", kind, slotCells, b.cfg.NumCols)
		capacity = 1
	}
	o := b.open[kind]
	if o == nil || o.slot >= o.cap {
		row := b.newRow(kind)
		for s := 1; s < rowsSpan; s++ {
			b.newRow(kind + ":cont")
		}
		o = &openRow{row: row, slot: 0, cap: capacity}
		b.open[kind] = o
	}
	s := o.slot
	o.slot++
	b.stats.Ops[kind]++
	return o.row, s
}

// fullRow allocates a whole fresh row for kind (dot products, sums).
func (b *Builder) fullRow(kind Kind, rowsSpan int) int {
	row := b.newRow(kind)
	for s := 1; s < rowsSpan; s++ {
		b.newRow(kind + ":cont")
	}
	b.stats.Ops[kind]++
	return row
}

// put writes a Value into a grid cell, adding a copy constraint to the
// value's canonical cell (or adopting this cell as canonical).
func (b *Builder) put(v *Value, row, col int) {
	b.grid[row][col] = v.v
	cell := plonkish.Cell{Col: plonkish.AdviceCol(col), Row: row}
	if v.placed {
		b.copies = append(b.copies, [2]plonkish.Cell{cell, v.cell})
		return
	}
	v.placed = true
	v.cell = cell
}

// out creates a new Value canonically placed at a grid cell.
func (b *Builder) out(v int64, row, col int) *Value {
	b.grid[row][col] = v
	return &Value{b: b, v: v, placed: true,
		cell: plonkish.Cell{Col: plonkish.AdviceCol(col), Row: row}}
}

// raw writes a bare witness value (remainders, bits) with no Value handle.
func (b *Builder) raw(v int64, row, col int) {
	b.grid[row][col] = v
}

// coef records a per-row fixed coefficient aligned with an advice column.
func (b *Builder) coef(row, col int, v int64) {
	m := b.coefs[row]
	if m == nil {
		m = map[int]int64{}
		b.coefs[row] = m
	}
	m[col] = v
	if col+1 > b.coefUsed {
		b.coefUsed = col + 1
	}
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
	row, s := b.slot(KindIO, 1, 1)
	b.put(v, row, s)
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

// padRow prefills a freshly allocated row with the kind's padding pattern:
// values that satisfy the kind's gates and lookups in unused slots.
func (b *Builder) padRow(kind Kind, row []int64, rowIdx int) {
	switch kind {
	case KindDivRound:
		// Slots [x, c, r] with per-row divisor coefficient a: pad with
		// a=1, x=0 => 2*0+1 = 0*2+r, r=1; lookups 1 and 2a-1-r=0 pass.
		for s := 0; s*3+2 < len(row); s++ {
			row[s*3+2] = 1
			b.coef(rowIdx, s*3, 1)
		}
	case KindVarDiv, KindDivFloor:
		// Slots [a, b, c, r]: a=1, b=0, c=0; r=1 for rounded (2b+a=1),
		// r=0 for floor (b = 0*1 + 0).
		for s := 0; s*4+3 < len(row); s++ {
			row[s*4] = 1
			if kind == KindVarDiv {
				row[s*4+3] = 1
			}
		}
	case KindReluDecomp:
		// Slots [x, y, bits...]: x=0 => x+HalfRange has only the top bit
		// set.
		cells := b.cfg.FP.LookupBits + 2
		for s := 0; (s+1)*cells <= len(row); s++ {
			row[s*cells+2+b.cfg.FP.LookupBits-1] = 1
		}
	default:
		if name, ok := gatherOfKind(kind); ok {
			t := b.gatherTables[name]
			cells := t.dim + 1
			for s := 0; (s+1)*cells <= len(row); s++ {
				for d := 0; d < t.dim; d++ {
					row[s*cells+1+d] = t.data[d] // table row 0, id 0
				}
			}
			return
		}
		// Kinds whose constraints and lookups hold on all-zero slots
		// (add, mul, max, dot, sum, nl with f(0)=0, ...) need no pattern —
		// except nonlinearities with f(0) != 0.
		if nl, ok := nlOfKind(kind); ok {
			y0 := b.cfg.FP.Fixed(nl, 0)
			if y0 != 0 {
				for s := 0; s*2+1 < len(row); s++ {
					row[s*2+1] = y0
				}
			}
		}
	}
}

// gatherOfKind parses a gather_* kind back to its table name.
func gatherOfKind(kind Kind) (string, bool) {
	const prefix = "gather_"
	s := string(kind)
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

// nlOfKind parses an nl_* kind back to its nonlinearity.
func nlOfKind(kind Kind) (fixedpoint.Nonlinearity, bool) {
	const prefix = "nl_"
	s := string(kind)
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		return fixedpoint.Nonlinearity(s[len(prefix):]), true
	}
	return "", false
}

// selector returns (allocating on demand) the selector id for a kind.
func (b *Builder) selector(kind Kind) int {
	if i, ok := b.selIdx[kind]; ok {
		return i
	}
	i := len(b.selOrder)
	b.selIdx[kind] = i
	b.selOrder = append(b.selOrder, kind)
	return i
}
