package limbs

// hasIFMA reports whether the block operations run the AVX-512 IFMA
// kernels (block_amd64.s): the CPU has AVX512F, AVX512DQ and AVX512IFMA,
// and the OS saves the opmask and ZMM state (XCR0). Set once at package
// init from CPUID and XGETBV.
var hasIFMA = detectIFMA()

func detectIFMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return false
	}
	// XCR0: SSE (1), AVX (2), opmask (5), ZMM0–15 upper halves (6) and
	// ZMM16–31 (7) state enabled.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv0(); xcr0&zmmState != zmmState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx512f, avx512dq, avx512ifma = 1 << 16, 1 << 17, 1 << 21
	want := uint32(avx512f | avx512dq | avx512ifma)
	return ebx7&want == want
}

// xgetbv0 reads XCR0, the OS-enabled processor state components.
func xgetbv0() (eax, edx uint32)

// The IFMA block kernels (block_amd64.s). Each takes the modulus' IFMA
// constants; the row-wise ones work on nv = 1 or 2 eight-lane vectors, the
// load and store on n rows, 1 ≤ n ≤ BlockRows, touching no element of src
// or dst past them. z may alias x or y.

//go:noescape
func blockLoadIFMA(z *Block, src *Limbs, n int, c *ifmaConst)

//go:noescape
func blockStoreIFMA(dst *Limbs, x *Block, n int, c *ifmaConst)

//go:noescape
func blockMulIFMA(z, x, y *Block, nv int, c *ifmaConst)

//go:noescape
func blockMulScalarIFMA(z, x *Block, s *BlockScalar, nv int, c *ifmaConst)

//go:noescape
func blockAddIFMA(z, x, y *Block, nv int, c *ifmaConst)

//go:noescape
func blockSubIFMA(z, x, y *Block, nv int, c *ifmaConst)

//go:noescape
func blockNegIFMA(z, x *Block, nv int, c *ifmaConst)

// The IFMA NTT kernels (block_amd64.s, ntt.go). The gather and put work on
// n rows, 1 ≤ n ≤ BlockRows, touching no element of src or dst past them;
// butterfliesIFMA and inBlockIFMA on whole blocks, groups, cnt and nb ≥ 1.

//go:noescape
func blockGatherIFMA(z *Block, src *Limbs, idx *[BlockRows]int, n int, c *ifmaConst)

//go:noescape
func blockPutIFMA(dst *Limbs, x *Block, n int, c *ifmaConst)

//go:noescape
func butterfliesIFMA(x, w *Block, groups, dist, cnt int, c *ifmaConst)

//go:noescape
func inBlockIFMA(x *Block, nb int, tw *InBlockTwiddles, stages int, c *ifmaConst)

// The IFMA AddRun passes (block_amd64.s, addrun.go), over n ≥ 1 ops and
// the scratch words w, inv and tmp that addRunIFMA lays out.

//go:noescape
func addRunFirstIFMA(ops *AddOp, n int, w, tmp *uint64, c *ifmaConst)

//go:noescape
func addRunSecondIFMA(ops *AddOp, n int, w, inv, tmp *uint64, c *ifmaConst)
