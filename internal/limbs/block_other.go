//go:build !amd64

package limbs

// hasIFMA is false off amd64: the portable block kernels are the only ones.
const hasIFMA = false

// The IFMA block kernels exist off amd64 only so the block operations
// compile everywhere; hasIFMA is a false constant here, so their calls are
// compiled out.

func blockLoadIFMA(z *Block, src *Limbs, n int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func blockStoreIFMA(dst *Limbs, x *Block, n int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func blockMulIFMA(z, x, y *Block, nv int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func blockMulScalarIFMA(z, x *Block, s *BlockScalar, nv int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func blockAddIFMA(z, x, y *Block, nv int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func blockSubIFMA(z, x, y *Block, nv int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func blockNegIFMA(z, x *Block, nv int, c *ifmaConst) { panic("limbs: no IFMA kernel on this platform") }

func blockGatherIFMA(z *Block, src *Limbs, idx *[BlockRows]int, n int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func blockPutIFMA(dst *Limbs, x *Block, n int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func butterfliesIFMA(x, w *Block, groups, dist, cnt int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func inBlockIFMA(x *Block, nb int, tw *InBlockTwiddles, stages int, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func addRunFirstIFMA(ops *AddOp, n int, w, tmp *uint64, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}

func addRunSecondIFMA(ops *AddOp, n int, w, inv, tmp *uint64, c *ifmaConst) {
	panic("limbs: no IFMA kernel on this platform")
}
