package plonkish

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ff"
)

// opKind is the instruction set of a Program: the five leaf kinds of an
// Expr, and the three operations its inner nodes lower to (a Scale is a
// multiplication by a constant, or a negation when the constant is -1).
type opKind uint8

const (
	opConst opKind = iota
	opVar
	opX
	opChallenge
	opArg
	opAdd
	opMul
	opNeg
)

// op is one instruction; its result is the register with the op's own
// index. Operands by kind:
//
//	const      a indexes Program.consts
//	var        a indexes Program.vars, b is the rotation
//	challenge  a is the ChallengeExpr index; arg: a is the ArgChallengeKind
//	add, mul   a <= b are operand registers; neg: a is the operand
type op struct {
	kind opKind
	a, b int32
}

// Program is a list of expressions lowered once to a flat SSA register
// program (DESIGN.md §10): every structurally identical subexpression is one
// register, shared by every expression that contains it, and the ops that do
// not depend on the row — constants, challenges, and anything computed only
// from them — come first, so an evaluator computes them once and then runs
// only the row-varying tail per row. Field arithmetic is exact, so the
// sharing and reordering give the value the expression tree denotes.
//
// The prover's quotient and lookup stages, the verifier's identity check and
// CheckConstraints all evaluate through a Program; Expr stays the authoring,
// degree and audit surface. Programs are derived from the constraint system
// whenever keys are built, never stored.
type Program struct {
	ops       []op
	consts    []ff.Element
	vars      []Query // distinct queried cells, in order of first use
	outputs   []int32 // the register holding each lowered expression
	invariant int     // ops[:invariant] do not depend on the row
	blocks    blockCode
}

// Compile lowers exprs into one Program whose outputs are the expressions'
// values, in order.
func Compile(exprs ...Expr) *Program {
	l := &lowerer{
		constIdx: map[ff.Element]int32{},
		varIdx:   map[Query]int32{},
		memo:     map[op]int32{},
	}
	outputs := make([]int32, len(exprs))
	for i, e := range exprs {
		outputs[i] = l.lower(e)
	}
	return l.finish(outputs)
}

// Len is the number of ops, and so of registers.
func (p *Program) Len() int { return len(p.ops) }

// Varying is the number of ops an evaluator runs per row.
func (p *Program) Varying() int { return len(p.ops) - p.invariant }

// columns returns the distinct columns the program reads, in order of
// first use, and for each of its vars the index of the var's column there.
func (p *Program) columns() (cols []Col, slot []int) {
	idx := map[Col]int{}
	slot = make([]int, len(p.vars))
	for i, q := range p.vars {
		s, ok := idx[q.Col]
		if !ok {
			s = len(cols)
			idx[q.Col] = s
			cols = append(cols, q.Col)
		}
		slot[i] = s
	}
	return cols, slot
}

// lowerer hash-conses ops while lowering: an op that is already in the
// program is never emitted twice.
type lowerer struct {
	ops      []op
	consts   []ff.Element
	constIdx map[ff.Element]int32
	vars     []Query
	varIdx   map[Query]int32
	memo     map[op]int32
}

func (l *lowerer) emit(o op) int32 {
	if r, ok := l.memo[o]; ok {
		return r
	}
	r := int32(len(l.ops))
	l.ops = append(l.ops, o)
	l.memo[o] = r
	return r
}

func (l *lowerer) constant(v ff.Element) int32 {
	i, ok := l.constIdx[v]
	if !ok {
		i = int32(len(l.consts))
		l.consts = append(l.consts, v)
		l.constIdx[v] = i
	}
	return l.emit(op{kind: opConst, a: i})
}

func (l *lowerer) lower(e Expr) int32 {
	switch e := e.(type) {
	case ConstExpr:
		return l.constant(e.V)
	case VarExpr:
		q := Query{Col: e.Col, Rot: e.Rot}
		i, ok := l.varIdx[q]
		if !ok {
			i = int32(len(l.vars))
			l.vars = append(l.vars, q)
			l.varIdx[q] = i
		}
		return l.emit(op{kind: opVar, a: i, b: int32(e.Rot)})
	case XExpr:
		return l.emit(op{kind: opX})
	case ChallengeExpr:
		return l.emit(op{kind: opChallenge, a: int32(e.Index)})
	case ArgChallengeExpr:
		return l.emit(op{kind: opArg, a: int32(e.Kind)})
	case SumExpr:
		return l.fold(opAdd, e.Terms, ff.Zero())
	case MulExpr:
		return l.fold(opMul, e.Factors, ff.One())
	case ScaledExpr:
		r := l.lower(e.E)
		if e.C == minusOne {
			if o := l.ops[r]; o.kind == opNeg {
				return o.a
			}
			return l.emit(op{kind: opNeg, a: r})
		}
		return l.binary(opMul, l.constant(e.C), r)
	}
	panic(fmt.Sprintf("plonkish: cannot lower expression %T", e))
}

// fold lowers an n-ary sum or product as a left fold over its operands in
// register order, so operand order never defeats sharing; no operands is
// the identity.
func (l *lowerer) fold(kind opKind, es []Expr, identity ff.Element) int32 {
	if len(es) == 0 {
		return l.constant(identity)
	}
	regs := make([]int32, len(es))
	for i, e := range es {
		regs[i] = l.lower(e)
	}
	slices.Sort(regs)
	acc := regs[0]
	for _, r := range regs[1:] {
		acc = l.binary(kind, acc, r)
	}
	return acc
}

func (l *lowerer) binary(kind opKind, a, b int32) int32 {
	if a > b {
		a, b = b, a
	}
	return l.emit(op{kind: kind, a: a, b: b})
}

// finish moves the row-invariant ops to the front, keeping the relative
// order within each group (an invariant op only reads invariant ones, so
// both groups stay topologically sorted), and renumbers every register.
func (l *lowerer) finish(outputs []int32) *Program {
	inv := make([]bool, len(l.ops))
	for i, o := range l.ops {
		switch o.kind {
		case opConst, opChallenge, opArg:
			inv[i] = true
		case opAdd, opMul:
			inv[i] = inv[o.a] && inv[o.b]
		case opNeg:
			inv[i] = inv[o.a]
		}
	}
	order := make([]int32, 0, len(l.ops))
	for pass := 0; pass < 2; pass++ {
		for i := range l.ops {
			if inv[i] == (pass == 0) {
				order = append(order, int32(i))
			}
		}
	}
	reg := make([]int32, len(l.ops))
	for to, from := range order {
		reg[from] = int32(to)
	}
	p := &Program{ops: make([]op, len(l.ops)), consts: l.consts, vars: l.vars, outputs: outputs}
	for to, from := range order {
		o := l.ops[from]
		switch o.kind {
		case opAdd, opMul:
			o.a, o.b = reg[o.a], reg[o.b]
		case opNeg:
			o.a = reg[o.a]
		}
		p.ops[to] = o
		if inv[from] {
			p.invariant++
		}
	}
	for i, r := range outputs {
		p.outputs[i] = reg[r]
	}
	p.blocks = p.compileBlocks()
	return p
}

// blockKind is the instruction set of a Program's block code: its
// row-varying ops, with each operand resolved to where the evaluator holds
// it.
type blockKind uint8

const (
	blockVar       blockKind = iota // load var a at rotation b
	blockX                          // load X
	blockAdd                        // slots a + b
	blockMul                        // slots a · b
	blockMulScalar                  // slot a · row-invariant scalar b
	blockNeg                        // −slot a
)

// blockOp is one op of the block code; its result goes to slot z.
type blockOp struct {
	kind    blockKind
	z, a, b int32
}

// blockCode is how an evaluator runs a Program over a block of rows: the
// row-varying ops in order, each writing a slot of a register file of
// slots blocks. A row-invariant register that a varying add reads, or that
// is an output, is broadcast once per evaluator into its own slot (bcast[i]
// into slot i); one that a varying mul reads is a scalar operand
// (scalars[i] is scalar i). A varying result gets a slot freed by a value
// past its last use, so the register file holds what is live, not every op:
// a slot is 640 bytes on the IFMA kernel.
type blockCode struct {
	code     []blockOp
	slots    int
	bcast    []int32
	scalars  []int32
	outSlots []int32
}

// compileBlocks derives p's block code.
func (p *Program) compileBlocks() blockCode {
	var bc blockCode
	slot := make([]int32, len(p.ops))
	scalar := make([]int32, len(p.ops))
	for i := range slot {
		slot[i], scalar[i] = -1, -1
	}
	broadcast := func(r int32) {
		if slot[r] < 0 {
			slot[r] = int32(bc.slots)
			bc.slots++
			bc.bcast = append(bc.bcast, r)
		}
	}
	inv := int32(p.invariant)
	// last[r] is the last varying op that reads register r; outputs stay
	// live to the end.
	last := make([]int, len(p.ops))
	for k := p.invariant; k < len(p.ops); k++ {
		switch o := p.ops[k]; o.kind {
		case opAdd:
			for _, r := range []int32{o.a, o.b} {
				if r < inv {
					broadcast(r)
				}
				last[r] = k
			}
		case opMul:
			for _, r := range []int32{o.a, o.b} {
				if r < inv && scalar[r] < 0 {
					scalar[r] = int32(len(bc.scalars))
					bc.scalars = append(bc.scalars, r)
				}
				last[r] = k
			}
		case opNeg:
			last[o.a] = k
		}
	}
	for _, r := range p.outputs {
		if r < inv {
			broadcast(r)
		}
		last[r] = len(p.ops)
	}

	var free []int32
	release := func(r int32, k int) {
		if r >= inv && last[r] == k {
			free = append(free, slot[r])
			last[r] = -1 // a square reads its operand twice
		}
	}
	for k := p.invariant; k < len(p.ops); k++ {
		o := p.ops[k]
		b := blockOp{a: o.a, b: o.b}
		switch o.kind {
		case opVar:
			b.kind = blockVar
		case opX:
			b.kind = blockX
		case opAdd:
			b.kind, b.a, b.b = blockAdd, slot[o.a], slot[o.b]
		case opMul:
			b.kind, b.a, b.b = blockMul, slot[o.a], slot[o.b]
			if o.a < inv {
				b.kind, b.a, b.b = blockMulScalar, slot[o.b], scalar[o.a]
			} else if o.b < inv {
				b.kind, b.b = blockMulScalar, scalar[o.b]
			}
		case opNeg:
			b.kind, b.a = blockNeg, slot[o.a]
		}
		if o.kind == opAdd || o.kind == opMul || o.kind == opNeg {
			release(o.a, k)
			if o.kind != opNeg {
				release(o.b, k)
			}
		}
		if n := len(free); n > 0 {
			b.z, free = free[n-1], free[:n-1]
		} else {
			b.z = int32(bc.slots)
			bc.slots++
		}
		slot[k] = b.z
		bc.code = append(bc.code, b)
	}
	bc.outSlots = make([]int32, len(p.outputs))
	for i, r := range p.outputs {
		bc.outSlots[i] = slot[r]
	}
	return bc
}

// evaluator is one worker's register file over a Program, with every var
// resolved to a column slice: a var at rotation rot reads
// cols[v][(row+rot) & mask], so rows wrap around a power-of-two domain,
// and a single-point evaluation binds one-element slices with mask 0.
//
// It runs the program op by op over a block of up to ff.BlockRows
// consecutive rows: each op is one call of a block kernel (limbs.Block),
// eight rows per instruction on the IFMA kernel, so the dispatch is paid
// once per op per block, and a var's rows are read in one pass over its
// column. The columns must not change while the evaluator is in use, and
// release returns its register file to the pool.
type evaluator struct {
	p       *Program
	cols    [][]ff.Element
	mask    int
	regs    []ff.Block
	scalars []ff.BlockScalar
	n       int // rows in the last run
	acc     ff.Block
	stage   [ff.BlockRows]ff.Element // a wrapping var's rows
}

// regFiles pools evaluators' register files, so the blocks of one prove's
// many evaluators are allocated about once per worker.
var regFiles sync.Pool

// newEvaluator binds cols (one slice per entry of p.vars), evaluates the
// row-invariant ops and broadcasts the ones the block code reads.
func (p *Program) newEvaluator(cols [][]ff.Element, mask int, challenges []ff.Element, arg *[3]ff.Element) *evaluator {
	inv := make([]ff.Element, p.invariant)
	for k, o := range p.ops[:p.invariant] {
		switch o.kind {
		case opConst:
			inv[k] = p.consts[o.a]
		case opChallenge:
			inv[k] = challenges[o.a]
		case opArg:
			inv[k] = arg[o.a]
		case opAdd:
			inv[k].Add(&inv[o.a], &inv[o.b])
		case opMul:
			inv[k].Mul(&inv[o.a], &inv[o.b])
		case opNeg:
			inv[k].Neg(&inv[o.a])
		}
	}
	e := &evaluator{p: p, cols: cols, mask: mask, scalars: make([]ff.BlockScalar, len(p.blocks.scalars))}
	if regs, ok := regFiles.Get().(*[]ff.Block); ok && cap(*regs) >= p.blocks.slots {
		e.regs = (*regs)[:p.blocks.slots]
	} else {
		e.regs = make([]ff.Block, p.blocks.slots)
	}
	for i, r := range p.blocks.bcast {
		var s ff.BlockScalar
		ff.Blocks.BlockScalarOf(&s, &inv[r])
		ff.Blocks.BroadcastBlock(&e.regs[i], &s)
	}
	for i, r := range p.blocks.scalars {
		ff.Blocks.BlockScalarOf(&e.scalars[i], &inv[r])
	}
	return e
}

// release returns the register file to the pool; e must not be used after.
func (e *evaluator) release() {
	regs := e.regs
	e.regs = nil
	regFiles.Put(&regs)
}

// run evaluates the row-varying ops on the n rows [row, row+n), 1 ≤ n ≤
// ff.BlockRows, with X = xs[i] on row+i (xs is unread when the program has
// no x).
func (e *evaluator) run(row, n int, xs []ff.Element) {
	regs := e.regs
	for _, o := range e.p.blocks.code {
		z := &regs[o.z]
		switch o.kind {
		case blockVar:
			e.load(z, e.cols[o.a], row+int(o.b), n)
		case blockX:
			ff.Blocks.LoadBlock(z, xs[:n])
		case blockAdd:
			ff.Blocks.AddBlock(z, &regs[o.a], &regs[o.b], n)
		case blockMul:
			ff.Blocks.MulBlock(z, &regs[o.a], &regs[o.b], n)
		case blockMulScalar:
			ff.Blocks.MulBlockScalar(z, &regs[o.a], &e.scalars[o.b], n)
		case blockNeg:
			ff.Blocks.NegBlock(z, &regs[o.a], n)
		}
	}
	e.n = n
}

// load sets z to the n cells of col from row start on, wrapping at mask.
func (e *evaluator) load(z *ff.Block, col []ff.Element, start, n int) {
	start &= e.mask
	if start+n <= e.mask+1 {
		ff.Blocks.LoadBlock(z, col[start:start+n])
		return
	}
	for i := range n {
		e.stage[i] = col[(start+i)&e.mask]
	}
	ff.Blocks.LoadBlock(z, e.stage[:n])
}

// out writes output i of the last run to dst, one value per row.
func (e *evaluator) out(i int, dst []ff.Element) {
	ff.Blocks.StoreBlock(dst[:e.n], &e.regs[e.p.blocks.outSlots[i]])
}

// combine writes to dst, per row of the last run, its outputs folded with
// powers of y, the first output carrying the highest power: the y-combined
// constraint value the prover and verifier agree on.
func (e *evaluator) combine(y *ff.Element, dst []ff.Element) {
	dst = dst[:e.n]
	outs := e.p.blocks.outSlots
	if len(outs) == 0 {
		clear(dst)
		return
	}
	var ys ff.BlockScalar
	ff.Blocks.BlockScalarOf(&ys, y)
	acc := &e.acc
	*acc = e.regs[outs[0]]
	for _, s := range outs[1:] {
		ff.Blocks.MulBlockScalar(acc, acc, &ys, e.n)
		ff.Blocks.AddBlock(acc, acc, &e.regs[s], e.n)
	}
	ff.Blocks.StoreBlock(dst, acc)
}
