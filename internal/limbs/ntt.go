package limbs

import "unsafe"

// The NTT's block operations. A transform holds its data in Blocks at
// R = 2^256 — the MontMul form, in the kernel's layout — and its twiddles
// and scalings in Blocks from LoadBlock (R = 2^260 on the IFMA kernel).
// MulBlock of a data block by a table block, and the butterflies' products,
// give data at R = 2^256 again, so data enters and leaves block form
// through GatherBlock and PutBlock by shifts alone, with no product. On the
// portable kernel both forms are the MontMul form.

// InBlockTwiddles holds the twiddles of the in-block stages h = 2, 4 and 8
// of a decimation-in-time NTT over a block (those of h = 1 are all 1), as
// InBlockTwiddlesOf builds them: on the IFMA kernel one vector per stage at
// R = 2^260, in the lane order of the stage's first operands
// (block_amd64.s); on the portable kernel the MontMul-form Limbs of stage h
// at rows h − 2 … 2h − 3.
type InBlockTwiddles [3 * 40]uint64

// twiddleRows views t in the portable layout.
func twiddleRows(t *InBlockTwiddles) *[30]Limbs { return (*[30]Limbs)(unsafe.Pointer(t)) }

// ifmaTwiddleExps is, per in-block stage h = 2, 4, 8, the power of the
// 16th root each lane of the stage's first operands takes: lane l holds
// row r, at offset k = r mod h of its group, whose twiddle is
// w16^(k·8/h).
var ifmaTwiddleExps = [3][8]int{
	{0, 4, 0, 4, 0, 4, 0, 4}, // rows 0,1,4,5,8,9,12,13
	{0, 2, 4, 6, 0, 2, 4, 6}, // rows 0,1,2,3,8,9,10,11
	{0, 1, 2, 3, 4, 5, 6, 7}, // rows 0…7
}

// InBlockTwiddlesOf sets t to the in-block twiddles of a transform whose
// primitive 16th root of unity is w16 (MontMul form): stage h's twiddle at
// offset k is w16^(k·8/h). A transform of n < 16 points whose root is
// w16^(16/n) runs only the stages h < n, so it uses the same table.
func (m *Modulus) InBlockTwiddlesOf(t *InBlockTwiddles, w16 *Limbs) {
	var pw [8]Limbs
	pw[0] = m.R
	for i := 1; i < len(pw); i++ {
		m.MontMul(&pw[i], &pw[i-1], w16)
	}
	if m.useIFMA() {
		for k, exps := range ifmaTwiddleExps {
			for lane, e := range exps {
				var s BlockScalar
				m.scalarIFMA(&s, &pw[e])
				for j, l := range s {
					t[40*k+8*j+lane] = l
				}
			}
		}
		return
	}
	r := twiddleRows(t)
	for h := 2; h <= 8; h <<= 1 {
		for k := 0; k < h; k++ {
			r[h-2+k] = pw[k*8/h]
		}
	}
}

// GatherBlock sets row r of z to src[idx[r]] for r < n, 1 ≤ n ≤ BlockRows,
// at R = 2^256 (the NTT's data form); rows past n are zero on the portable
// kernel and unspecified on the IFMA one. Every idx[r], r < n, must index
// src.
func (m *Modulus) GatherBlock(z *Block, src []Limbs, idx *[BlockRows]int, n int) {
	checkRows(n)
	for _, i := range idx[:n] {
		if uint(i) >= uint(len(src)) {
			panic("limbs: GatherBlock index out of range")
		}
	}
	if m.useIFMA() {
		blockGatherIFMA(z, &src[0], idx, n, &m.ifma)
		return
	}
	gatherPortable(z, src, idx, n)
}

// PutBlock writes the first len(dst) rows of x, a data block of GatherBlock's
// form, to dst in MontMul form; 1 ≤ len(dst) ≤ BlockRows.
func (m *Modulus) PutBlock(dst []Limbs, x *Block) {
	checkRows(len(dst))
	if m.useIFMA() {
		blockPutIFMA(&dst[0], x, len(dst), &m.ifma)
		return
	}
	copy(dst, rows(x)[:len(dst)])
}

// Butterflies runs, in each of groups groups of 2·dist blocks from x, the
// butterflies of blocks k and dist + k for k < cnt ≤ dist, row by row under
// the twiddles of block w[k]: with a and b the two rows and t = w·b, it
// sets them to a + t and a − t. x's blocks are data blocks, w's table
// blocks (LoadBlock). It panics unless the pairs and twiddles it names lie
// in x and w.
func (m *Modulus) Butterflies(x []Block, groups, dist, cnt int, w []Block) {
	if groups < 1 || dist < 1 || cnt < 1 || cnt > dist || cnt > len(w) ||
		dist+cnt > len(x) || groups-1 > (len(x)-dist-cnt)/(2*dist) {
		panic("limbs: Butterflies out of range")
	}
	if m.useIFMA() {
		butterfliesIFMA(&x[0], &w[0], groups, dist, cnt, &m.ifma)
		return
	}
	for g := 0; g < groups; g++ {
		for k := 0; k < cnt; k++ {
			i := 2*g*dist + k
			m.butterflyRows(rows(&x[i])[:], rows(&x[i+dist])[:], rows(&w[k])[:])
		}
	}
}

// InBlockStages runs the first stages (1 ≤ stages ≤ 4) of the in-block
// stages h = 1, 2, 4, 8 of a decimation-in-time NTT on every data block of
// x: stage h pairs row r with row r + h, for r mod 2h < h, under the
// twiddle of offset r mod h in t.
func (m *Modulus) InBlockStages(x []Block, t *InBlockTwiddles, stages int) {
	if stages < 1 || stages > 4 {
		panic("limbs: InBlockStages stage count out of range")
	}
	if len(x) == 0 {
		return
	}
	if m.useIFMA() {
		inBlockIFMA(&x[0], len(x), t, stages, &m.ifma)
		return
	}
	tw := twiddleRows(t)
	for i := range x {
		r := rows(&x[i])
		for s := 0; s < stages; s++ {
			h := 1 << s
			for g := 0; g < BlockRows; g += 2 * h {
				if h == 1 {
					m.addSub(&r[g], &r[g+1])
					continue
				}
				m.butterflyRows(r[g:g+h], r[g+h:g+2*h], tw[h-2:2*h-2])
			}
		}
	}
}

func gatherPortable(z *Block, src []Limbs, idx *[BlockRows]int, n int) {
	r := rows(z)
	for i := range r {
		if i < n {
			r[i] = src[idx[i]]
		} else {
			r[i] = Limbs{}
		}
	}
}
