package plonkish

import (
	"fmt"

	"repro/internal/ff"
	"repro/internal/poly"
)

// ZKRows is the number of trailing rows reserved per column for
// zero-knowledge blinding plus the accumulator-final row. Usable circuit
// rows are [0, N - ZKRows).
const ZKRows = 5

// BlindingRows is how many rows of a column of kind k the prover fills with
// fresh randomness: all ZKRows of an advice or multiplicity column; one
// fewer for the running sums phi and z, whose row N − ZKRows holds the sum
// the argument closes on; none for the public kinds (fixed, instance,
// sigma).
func BlindingRows(k ColKind) int {
	switch k {
	case Advice, LookupM:
		return ZKRows
	case LookupPhi, PermZ:
		return ZKRows - 1
	}
	return 0
}

// Gate is a named set of polynomial constraints (typically pre-multiplied
// by a selector fixed column) enforced on every active row.
type Gate struct {
	Name  string
	Polys []Expr
}

// Lookup is a lookup argument: on rows where Selector evaluates to 1, the
// tuple of Inputs must appear among the rows of the Table fixed columns
// (rows [0, TableLen)).
type Lookup struct {
	Name     string
	Selector Expr // must evaluate to 0 or 1 on every row
	Inputs   []Expr
	Table    []Col // fixed columns, same length as Inputs
	TableLen int
}

// Cell addresses one grid cell.
type Cell struct {
	Col Col
	Row int
}

// CS is a Plonkish constraint system: the circuit shape, independent of any
// particular witness.
type CS struct {
	NumFixed    int
	NumAdvice   int
	NumInstance int
	// AdvicePhase optionally tags advice columns with a commitment phase
	// (0 or 1); phase-1 columns may depend on squeezed challenges
	// (Freivalds). Nil means all phase 0.
	AdvicePhase []int
	// NumChallenges is the number of challenges squeezed between phase 0
	// and phase 1.
	NumChallenges int

	Gates   []Gate
	Lookups []Lookup
	Copies  [][2]Cell

	// PermFixed lists fixed columns included in the permutation argument
	// so advice cells can be copy-constrained to committed constants
	// (used to bind witness cells to model constants).
	PermFixed []int

	// MinDegree optionally raises the circuit degree bound (larger
	// permutation chunks, fewer grand products, bigger extended domain).
	MinDegree int
}

// FixedCol / AdviceCol / InstanceCol build column references.
func FixedCol(i int) Col    { return Col{Kind: Fixed, Index: i} }
func AdviceCol(i int) Col   { return Col{Kind: Advice, Index: i} }
func InstanceCol(i int) Col { return Col{Kind: Instance, Index: i} }

// AddGate appends a gate.
func (cs *CS) AddGate(name string, polys ...Expr) {
	cs.Gates = append(cs.Gates, Gate{Name: name, Polys: polys})
}

// AddLookup appends a lookup argument.
func (cs *CS) AddLookup(l Lookup) { cs.Lookups = append(cs.Lookups, l) }

// Copy adds a copy constraint between two cells. Only Advice and Instance
// cells may participate.
func (cs *CS) Copy(a, b Cell) {
	cs.Copies = append(cs.Copies, [2]Cell{a, b})
}

// phase returns the commitment phase of advice column i.
func (cs *CS) phase(i int) int {
	if cs.AdvicePhase == nil {
		return 0
	}
	return cs.AdvicePhase[i]
}

// maxPhase returns the highest advice phase in use.
func (cs *CS) maxPhase() int {
	p := 0
	for i := 0; i < cs.NumAdvice; i++ {
		if cs.phase(i) > p {
			p = cs.phase(i)
		}
	}
	return p
}

// Degree returns the circuit degree bound d_max: the maximum over all gate
// polynomials, the lookup argument constraint, the permutation argument
// floor of 3, and MinDegree. The permutation chunk size is d_max - 2
// columns per grand product (the N_pm/(d_max-2) term in the paper's FFT
// count formula).
func (cs *CS) Degree() int {
	d := 3
	if cs.MinDegree > d {
		d = cs.MinDegree
	}
	for _, g := range cs.Gates {
		for _, p := range g.Polys {
			if pd := p.Degree(); pd > d {
				d = pd
			}
		}
	}
	for _, l := range cs.Lookups {
		// q_active * (phi_next - phi) * (beta + f) * (beta + t), with
		// f the max-degree compressed input and t degree 1.
		df := 0
		for _, in := range l.Inputs {
			if d2 := in.Degree(); d2 > df {
				df = d2
			}
		}
		ds := l.Selector.Degree()
		ld := 1 + max(1+df+1, ds+1, 1+df)
		if ld > d {
			d = ld
		}
	}
	return d
}

// PermChunk returns the number of columns covered per permutation grand
// product.
func (cs *CS) PermChunk() int {
	c := cs.Degree() - 2
	if c < 1 {
		c = 1
	}
	return c
}

// PermCols returns the ordered columns covered by the permutation argument:
// all advice columns, the instance columns, then any opted-in fixed columns.
func (cs *CS) PermCols() []Col {
	out := make([]Col, 0, cs.NumAdvice+cs.NumInstance+len(cs.PermFixed))
	for i := 0; i < cs.NumAdvice; i++ {
		out = append(out, AdviceCol(i))
	}
	for i := 0; i < cs.NumInstance; i++ {
		out = append(out, InstanceCol(i))
	}
	for _, i := range cs.PermFixed {
		out = append(out, FixedCol(i))
	}
	return out
}

// numZ returns the number of permutation grand products a proof commits:
// one per PermChunk permutation columns, or none when the circuit has no
// copy constraints.
func (cs *CS) numZ() int {
	n := len(cs.PermCols())
	if n == 0 || len(cs.Copies) == 0 {
		return 0
	}
	c := cs.PermChunk()
	return (n + c - 1) / c
}

// Validate checks internal consistency of the constraint system.
func (cs *CS) Validate() error {
	check := func(c Col) error {
		switch c.Kind {
		case Fixed:
			if c.Index < 0 || c.Index >= cs.NumFixed {
				return fmt.Errorf("plonkish: fixed column %d out of range [0,%d)", c.Index, cs.NumFixed)
			}
		case Advice:
			if c.Index < 0 || c.Index >= cs.NumAdvice {
				return fmt.Errorf("plonkish: advice column %d out of range [0,%d)", c.Index, cs.NumAdvice)
			}
		case Instance:
			if c.Index < 0 || c.Index >= cs.NumInstance {
				return fmt.Errorf("plonkish: instance column %d out of range [0,%d)", c.Index, cs.NumInstance)
			}
		default:
			return fmt.Errorf("plonkish: user constraint references internal column kind %v", c.Kind)
		}
		return nil
	}
	var exprs []Expr
	for _, g := range cs.Gates {
		exprs = append(exprs, g.Polys...)
	}
	for _, l := range cs.Lookups {
		if len(l.Inputs) == 0 {
			// An empty lookup has no columns to compress; the prover's
			// theta-fold would otherwise index vals[-1] at every row.
			return fmt.Errorf("plonkish: lookup %q has no input expressions", l.Name)
		}
		if len(l.Inputs) != len(l.Table) {
			return fmt.Errorf("plonkish: lookup %q arity mismatch", l.Name)
		}
		for _, tc := range l.Table {
			if tc.Kind != Fixed {
				return fmt.Errorf("plonkish: lookup %q table column must be fixed", l.Name)
			}
			if err := check(tc); err != nil {
				return err
			}
		}
		exprs = append(exprs, l.Selector)
		exprs = append(exprs, l.Inputs...)
	}
	for _, q := range CollectQueries(exprs...) {
		if err := check(q.Col); err != nil {
			return err
		}
		if q.Col.Kind == Instance && q.Rot != 0 {
			return fmt.Errorf("plonkish: instance columns may only be queried at rotation 0")
		}
	}
	permFixed := map[int]bool{}
	for _, i := range cs.PermFixed {
		permFixed[i] = true
	}
	for _, cp := range cs.Copies {
		for _, cell := range cp {
			ok := cell.Col.Kind == Advice || cell.Col.Kind == Instance ||
				(cell.Col.Kind == Fixed && permFixed[cell.Col.Index])
			if !ok {
				return fmt.Errorf("plonkish: copy constraint on column %v/%d outside permutation", cell.Col.Kind, cell.Col.Index)
			}
			if err := check(cell.Col); err != nil {
				return err
			}
		}
	}
	if cs.AdvicePhase != nil && len(cs.AdvicePhase) != cs.NumAdvice {
		return fmt.Errorf("plonkish: AdvicePhase length %d != NumAdvice %d", len(cs.AdvicePhase), cs.NumAdvice)
	}
	return nil
}

// Assignment is a fully populated witness grid for N rows.
type Assignment struct {
	N        int
	Fixed    [][]ff.Element // [col][row]
	Advice   [][]ff.Element
	Instance [][]ff.Element
}

// NewAssignment allocates a zeroed grid for the constraint system.
func NewAssignment(cs *CS, n int) *Assignment {
	a := &Assignment{N: n}
	a.Fixed = make([][]ff.Element, cs.NumFixed)
	for i := range a.Fixed {
		a.Fixed[i] = make([]ff.Element, n)
	}
	a.Advice = make([][]ff.Element, cs.NumAdvice)
	for i := range a.Advice {
		a.Advice[i] = make([]ff.Element, n)
	}
	a.Instance = make([][]ff.Element, cs.NumInstance)
	for i := range a.Instance {
		a.Instance[i] = make([]ff.Element, n)
	}
	return a
}

// Get returns the value at a cell.
func (a *Assignment) Get(c Col, row int) ff.Element {
	return a.column(c)[((row%a.N)+a.N)%a.N]
}

// column returns the grid column c.
func (a *Assignment) column(c Col) []ff.Element {
	switch c.Kind {
	case Fixed:
		return a.Fixed[c.Index]
	case Advice:
		return a.Advice[c.Index]
	case Instance:
		return a.Instance[c.Index]
	}
	panic(fmt.Sprintf("plonkish: Get on internal column %v", c.Kind))
}

// bind resolves every var of p to its grid column, for a machine over the
// grid's rows.
func (a *Assignment) bind(p *Program) [][]ff.Element {
	cols := make([][]ff.Element, len(p.vars))
	for i, q := range p.vars {
		cols[i] = a.column(q.Col)
	}
	return cols
}

// Set assigns a value to a cell.
func (a *Assignment) Set(c Col, row int, v ff.Element) {
	switch c.Kind {
	case Fixed:
		a.Fixed[c.Index][row] = v
	case Advice:
		a.Advice[c.Index][row] = v
	case Instance:
		a.Instance[c.Index][row] = v
	default:
		panic(fmt.Sprintf("plonkish: Set on internal column %v", c.Kind))
	}
}

// CheckConstraints verifies the assignment satisfies every gate, lookup,
// and copy constraint directly (no proving). It is the circuit-debugging
// path ("mock prover") and is also used by tests as a ground-truth oracle.
//
// It accepts what Prove accepts. User gates are not multiplied by q_active,
// so the quotient needs them to vanish on all N rows, including the rows
// [U, N) that Prove fills with random blinding values: gates are checked on
// every row, with advice cells in those rows read from a deterministic
// non-zero stand-in for the blinding (the caller's grid is not changed).
// Lookups hold on the usable rows, as in the prover.
func CheckConstraints(cs *CS, a *Assignment, challenges []ff.Element) error {
	n, u := a.N, a.N-ZKRows
	if n < 2*ZKRows || n&(n-1) != 0 {
		return fmt.Errorf("plonkish: rows %d must be a power of two of at least %d", n, 2*ZKRows)
	}
	grid := *a
	grid.Advice = make([][]ff.Element, len(a.Advice))
	for i, col := range a.Advice {
		grid.Advice[i] = append([]ff.Element(nil), col...)
		for r := u; r < n; r++ {
			grid.Advice[i][r] = ff.HashToField(fmt.Appendf(nil, "zkml-go/mock-blinding/v1/%d/%d", i, r))
		}
	}
	omega := poly.NewDomain(n).Elements()
	var arg [3]ff.Element

	type gatePoly struct {
		gate string
		poly int
	}
	var polys []Expr
	var names []gatePoly
	for _, g := range cs.Gates {
		for pi, p := range g.Polys {
			polys = append(polys, p)
			names = append(names, gatePoly{g.Name, pi})
		}
	}
	gates := Compile(polys...)
	mc := gates.newMachine(grid.bind(gates), n-1, challenges, &arg)
	// Report the first violated polynomial in gate order at its first row.
	bad, badRow := len(polys), 0
	var badVal ff.Element
	for row := 0; row < n && bad > 0; row++ {
		mc.run(row, &omega[row])
		for k := 0; k < bad; k++ {
			if v := mc.out(k); !v.IsZero() {
				bad, badRow, badVal = k, row, *v
				break
			}
		}
	}
	if bad < len(polys) {
		return fmt.Errorf("plonkish: gate %q poly %d violated at row %d (value %s)", names[bad].gate, names[bad].poly, badRow, badVal)
	}

	lookups := compileLookupInputs(cs)
	mc = lookups.newMachine(grid.bind(lookups), n-1, challenges, &arg)
	tables := make([]map[string]bool, len(cs.Lookups))
	for k, l := range cs.Lookups {
		tables[k] = map[string]bool{}
		for r := 0; r < l.TableLen; r++ {
			key := ""
			for _, tc := range l.Table {
				b := a.Get(tc, r).Bytes()
				key += string(b[:])
			}
			tables[k][key] = true
		}
	}
	for row := 0; row < u; row++ {
		mc.run(row, &omega[row])
		o := 0
		for k, l := range cs.Lookups {
			sel, in := mc.out(o), o+1
			o += 1 + len(l.Inputs)
			if sel.IsZero() {
				continue
			}
			if !sel.IsOne() {
				return fmt.Errorf("plonkish: lookup %q selector not boolean at row %d", l.Name, row)
			}
			key := ""
			for i := range l.Inputs {
				b := mc.out(in + i).Bytes()
				key += string(b[:])
			}
			if !tables[k][key] {
				return fmt.Errorf("plonkish: lookup %q input at row %d not in table", l.Name, row)
			}
		}
	}
	for i, cp := range cs.Copies {
		va, vb := a.Get(cp[0].Col, cp[0].Row), a.Get(cp[1].Col, cp[1].Row)
		if !va.Equal(&vb) {
			return fmt.Errorf("plonkish: copy constraint %d violated: %v@%d=%s != %v@%d=%s",
				i, cp[0].Col, cp[0].Row, va, cp[1].Col, cp[1].Row, vb)
		}
	}
	return nil
}
