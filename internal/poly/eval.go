package poly

import (
	"repro/internal/ff"
	"repro/internal/parallel"
)

// Eval evaluates the coefficient-form polynomial p at x.
func Eval(p []ff.Element, x ff.Element) ff.Element {
	return Evals([][]ff.Element{p}, x)[0]
}

// Evals evaluates each coefficient-form polynomial of ps at x, across the
// worker pool. One table of x^i, i below the longest length, serves them
// all: a polynomial's value is the sum of its coefficient blocks times the
// table's blocks, as block products and sums — exactly Horner's value.
func Evals(ps [][]ff.Element, x ff.Element) []ff.Element {
	k := ff.Blocks
	n := 0
	for _, p := range ps {
		n = max(n, len(p))
	}
	nb := (n + ff.BlockRows - 1) / ff.BlockRows
	buf := blockScratch.Get(nb)
	defer blockScratch.Put(buf)
	pows := *buf
	if nb > 0 {
		var row [ff.BlockRows]ff.Element
		row[0] = ff.One()
		for r := 1; r < len(row); r++ {
			row[r].Mul(&row[r-1], &x)
		}
		var x16 ff.Element
		x16.Mul(&row[ff.BlockRows-1], &x)
		var s ff.BlockScalar
		k.BlockScalarOf(&s, &x16)
		k.LoadBlock(&pows[0], row[:])
		for b := 1; b < nb; b++ {
			k.MulBlockScalar(&pows[b], &pows[b-1], &s, ff.BlockRows)
		}
	}
	out := make([]ff.Element, len(ps))
	parallel.For(len(ps), func(i int) { out[i] = evalBlocks(k, ps[i], pows) })
	return out
}

// inOrder gathers a block's rows in order.
var inOrder = [ff.BlockRows]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// evalBlocks returns Σ p[i]·x^i for pows, the table of x^i in LoadBlock's
// form. A last partial block is padded with zero coefficients.
func evalBlocks(k ff.BlockKernel, p []ff.Element, pows []ff.Block) ff.Element {
	if len(p) == 0 {
		return ff.Zero()
	}
	var acc, t ff.Block
	var tail [ff.BlockRows]ff.Element
	for b := 0; b*ff.BlockRows < len(p); b++ {
		src := p[b*ff.BlockRows:]
		if len(src) < ff.BlockRows {
			copy(tail[:], src)
			src = tail[:]
		}
		k.GatherBlock(&t, src, &inOrder, ff.BlockRows)
		if b == 0 {
			k.MulBlock(&acc, &t, &pows[0], ff.BlockRows)
			continue
		}
		k.MulBlock(&t, &t, &pows[b], ff.BlockRows)
		k.AddBlock(&acc, &acc, &t, ff.BlockRows)
	}
	var rows [ff.BlockRows]ff.Element
	k.PutBlock(rows[:], &acc)
	sum := rows[0]
	for _, r := range rows[1:] {
		sum.Add(&sum, &r)
	}
	return sum
}
