package poly

import (
	"math/bits"

	"repro/internal/ff"
	"repro/internal/parallel"
)

// parallelMin is the smallest transform size worth fanning out across
// workers; below it goroutine dispatch costs more than the butterflies.
const parallelMin = 1 << 11

// twiddles are one direction of a size-n transform's tables on one block
// kernel: the in-block stages' twiddles, and the twiddles of the stages
// that pair whole blocks, stage h = 16·hb (hb = 1, 2, …, n/32 blocks
// apart) holding root_2h^k for k < h at blocks [hb − 1, 2·hb − 1), in
// LoadBlock's form. nInv is n⁻¹ for the inverse direction, nil for the
// forward one.
type twiddles struct {
	inBlock ff.InBlockTwiddles
	stages  []ff.Block
	nInv    *ff.BlockScalar
}

// newTwiddles builds d's forward or inverse tables on kernel k.
func newTwiddles(k ff.BlockKernel, d *Domain, inverse bool) *twiddles {
	t := &twiddles{}
	root, w16 := d.Omega, ff.RootOfUnity(4)
	if inverse {
		root = d.OmegaInv
		w16.Inverse(&w16)
		t.nInv = new(ff.BlockScalar)
		k.BlockScalarOf(t.nInv, &d.NInv)
	}
	k.InBlockTwiddlesOf(&t.inBlock, &w16)
	nb := d.N / ff.BlockRows
	if nb > 1 {
		t.stages = make([]ff.Block, nb-1)
	}
	var row [ff.BlockRows]ff.Element
	for hb := 1; hb < nb; hb <<= 1 {
		var step ff.Element // root_2h = root^(n/2h), h = 16·hb
		step.ExpUint64(&root, uint64(nb/(2*hb)))
		acc := ff.One()
		for b := 0; b < hb; b++ {
			for r := range row {
				row[r] = acc
				acc.Mul(&acc, &step)
			}
			k.LoadBlock(&t.stages[hb-1+b], row[:])
		}
	}
	return t
}

// kernelSlot is the slot of kernel k's tables in a Domain: 0 for the
// kernel this CPU runs, 1 for the portable reference tests run beside it.
func kernelSlot(k ff.BlockKernel) int {
	if k == ff.Blocks {
		return 0
	}
	return 1
}

// gather is the bit-reversed gather of an n-point transform into blocks of
// rows = min(n, BlockRows) rows: row r of block b is
// v[rev(b·rows + r)] = v[base(b) + idx[r]], with rev the logN-bit
// reversal. For n ≥ BlockRows, idx[r] = rev4(r)·nb and base(b) is b's
// (logN − 4)-bit reversal.
type gather struct {
	rows, nb, baseBits int
	idx                [ff.BlockRows]int
}

func newGather(n int) *gather {
	logN := bits.TrailingZeros(uint(n))
	in := min(logN, 4)
	g := &gather{rows: min(n, ff.BlockRows), baseBits: logN - in}
	g.nb = n / g.rows
	for r := 0; r < g.rows; r++ {
		g.idx[r] = int(bits.Reverse64(uint64(r))>>(64-in)) * g.nb
	}
	return g
}

func (g *gather) base(b int) int {
	return int(bits.Reverse64(uint64(b)) >> (64 - g.baseBits))
}

// gatherTable puts the values v of an n-point transform's inputs into
// LoadBlock-form blocks in the order its gather reads them, so that block
// b scales gathered block b.
func gatherTable(k ff.BlockKernel, v []ff.Element) []ff.Block {
	g := newGather(len(v))
	out := make([]ff.Block, g.nb)
	var row [ff.BlockRows]ff.Element
	for b := range out {
		base := g.base(b)
		for r := 0; r < g.rows; r++ {
			row[r] = v[base+g.idx[r]]
		}
		k.LoadBlock(&out[b], row[:g.rows])
	}
	return out
}

// naturalTable puts v into LoadBlock-form blocks in order, min(len(v),
// BlockRows) rows each: the order a transform's output leaves in.
func naturalTable(k ff.BlockKernel, v []ff.Element) []ff.Block {
	rows := min(len(v), ff.BlockRows)
	out := make([]ff.Block, len(v)/rows)
	for b := range out {
		k.LoadBlock(&out[b], v[b*rows:(b+1)*rows])
	}
	return out
}

// blockScratch holds the transforms' block buffers between calls.
var blockScratch parallel.Scratch[ff.Block]

// ntt runs the radix-2 decimation-in-time NTT of v in place on kernel k,
// under the twiddles tw, as one stage loop over blocks. v enters block form
// through the bit-reversed gather, scaled by pre (in the gather's block
// order) when pre is non-nil. It leaves in natural order through PutBlock,
// scaled by post when post is non-nil, and otherwise, for an inverse
// transform, by n⁻¹.
//
// The blocks split into c chunks of cb = nb/c blocks, c the smallest power
// of two no smaller than the worker count (1 for small transforms, at most
// nb/2). One pass per chunk gathers its blocks, runs the in-block stages
// h = 1, 2, 4, 8 and then every stage that pairs blocks of the same chunk,
// in cache.
// Each remaining stage pairs blocks across chunks and splits its nb/2 pairs
// into c runs of cb/2; the last one puts the blocks it finishes. Every
// butterfly is exact and reads one shared table, so the result is the same
// at every worker count.
func ntt(k ff.BlockKernel, v []ff.Element, tw *twiddles, pre, post []ff.Block) {
	n := len(v)
	g := newGather(n)
	rows, nb := g.rows, g.nb
	stages := min(bits.TrailingZeros(uint(n)), 4)
	buf := blockScratch.Get(nb)
	defer blockScratch.Put(buf)
	x := *buf

	put := func(b int) {
		switch {
		case post != nil:
			k.MulBlock(&x[b], &x[b], &post[b], rows)
		case tw.nInv != nil:
			k.MulBlockScalar(&x[b], &x[b], tw.nInv, rows)
		}
		k.PutBlock(v[b*rows:(b+1)*rows], &x[b])
	}

	c := 1
	if n >= parallelMin && parallel.Workers() > 1 {
		c = min(1<<bits.Len(uint(parallel.Workers()-1)), nb/2)
	}
	cb := nb / c
	local := func(ci int) {
		lo, hi := ci*cb, (ci+1)*cb
		for b := lo; b < hi; b++ {
			k.GatherBlock(&x[b], v[g.base(b):], &g.idx, rows)
			if pre != nil {
				k.MulBlock(&x[b], &x[b], &pre[b], rows)
			}
		}
		if stages > 0 {
			k.InBlockStages(x[lo:hi], &tw.inBlock, stages)
		}
		for hb := 1; hb < cb; hb <<= 1 {
			k.Butterflies(x[lo:hi], cb/(2*hb), hb, hb, tw.stages[hb-1:2*hb-1])
		}
		if c == 1 {
			for b := lo; b < hi; b++ {
				put(b)
			}
		}
	}
	if c == 1 {
		local(0)
		return
	}
	parallel.For(c, local)
	for hb := cb; hb < nb; hb <<= 1 {
		last := 2*hb == nb
		parallel.For(c, func(ci int) {
			p := ci * cb / 2 // the run's first pair: offset k0 of group p/hb
			x0, k0 := 2*hb*(p/hb)+p%hb, p%hb
			k.Butterflies(x[x0:], 1, hb, cb/2, tw.stages[hb-1+k0:2*hb-1])
			if last {
				for b := x0; b < x0+cb/2; b++ {
					put(b)
					put(b + hb)
				}
			}
		})
	}
}
