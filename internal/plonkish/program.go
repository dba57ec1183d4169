package plonkish

import (
	"fmt"
	"slices"

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
	return p
}

// machine is one worker's register file over a Program, with every var
// resolved to a column slice: a var at rotation rot reads
// cols[slot][(row+rot) & mask], so rows wrap around a power-of-two domain,
// and a single-point evaluation binds one-element slices with mask 0.
type machine struct {
	p    *Program
	regs []ff.Element
	cols [][]ff.Element
	mask int
}

// newMachine binds cols (one slice per entry of p.vars) and evaluates the
// row-invariant ops.
func (p *Program) newMachine(cols [][]ff.Element, mask int, challenges []ff.Element, arg *[3]ff.Element) *machine {
	m := &machine{p: p, regs: make([]ff.Element, len(p.ops)), cols: cols, mask: mask}
	regs := m.regs
	for k, o := range p.ops[:p.invariant] {
		switch o.kind {
		case opConst:
			regs[k] = p.consts[o.a]
		case opChallenge:
			regs[k] = challenges[o.a]
		case opArg:
			regs[k] = arg[o.a]
		case opAdd:
			regs[k].Add(&regs[o.a], &regs[o.b])
		case opMul:
			regs[k].Mul(&regs[o.a], &regs[o.b])
		case opNeg:
			regs[k].Neg(&regs[o.a])
		}
	}
	return m
}

// run evaluates the row-varying ops at row, with X = x.
func (m *machine) run(row int, x *ff.Element) {
	ops, regs := m.p.ops, m.regs
	for k := m.p.invariant; k < len(ops); k++ {
		switch o := ops[k]; o.kind {
		case opVar:
			regs[k] = m.cols[o.a][(row+int(o.b))&m.mask]
		case opX:
			regs[k] = *x
		case opAdd:
			regs[k].Add(&regs[o.a], &regs[o.b])
		case opMul:
			regs[k].Mul(&regs[o.a], &regs[o.b])
		case opNeg:
			regs[k].Neg(&regs[o.a])
		}
	}
}

// out returns output i of the last run.
func (m *machine) out(i int) *ff.Element { return &m.regs[m.p.outputs[i]] }

// combine folds the outputs of the last run with powers of y, the first
// output carrying the highest power: the y-combined constraint value the
// prover and verifier agree on.
func (m *machine) combine(y *ff.Element) ff.Element {
	var acc ff.Element
	for _, r := range m.p.outputs {
		acc.Mul(&acc, y)
		acc.Add(&acc, &m.regs[r])
	}
	return acc
}
