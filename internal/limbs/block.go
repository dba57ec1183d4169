package limbs

import (
	"math/big"
	"unsafe"
)

// BlockRows is the number of rows a Block holds: two vectors of eight
// lanes on the IFMA kernel.
const BlockRows = 16

// Block holds BlockRows field values in the layout of the block kernel this
// CPU runs. On the IFMA kernel a value is five 52-bit limbs in Montgomery
// form with R = 2^260, stored lane-major: limb j of row r is word
// 40·(r/8) + 8·j + r%8, so each limb of eight rows is one 512-bit vector.
// On the portable kernel row r is the Limbs at words 4r … 4r+3, in the
// MontMul form (R = 2^256), and the last 16 words are unused. Values enter
// and leave a Block only through LoadBlock and StoreBlock, in MontMul form,
// or, as an NTT's data at R = 2^256, through GatherBlock and PutBlock
// (ntt.go).
type Block [BlockRows * 5]uint64

// BlockScalar is one value in the block kernel's form, the broadcast operand
// of MulBlockScalar and BroadcastBlock: five 52-bit limbs with R = 2^260 on
// the IFMA kernel, the MontMul-form Limbs in its first four words on the
// portable one.
type BlockScalar [5]uint64

// ifmaConst is a modulus as the IFMA block kernels read it: the assembly
// takes it by pointer and reads its first 128 bytes at fixed offsets.
type ifmaConst struct {
	q   [5]uint64 // M in 52-bit limbs (offset 0)
	k   uint64    // −M⁻¹ mod 2^52 (offset 40)
	in  [5]uint64 // 2^264 mod M: a load's product takes R = 2^256 to 2^260 (offset 48)
	out [5]uint64 // 2^256 mod M: a store's product takes R = 2^260 back (offset 88)
	// scalar is 2^260 mod M in 64-bit limbs: MontMul by it takes a
	// MontMul-form value to R = 2^260 (BlockScalarOf).
	scalar Limbs
	// lanes is 2^262 mod M: MontMul by it multiplies by 2^6, which turns
	// AddRun's lane inverses into those its IFMA pass needs (addRunIFMA).
	lanes Limbs
}

// The assembly reads q, k, in and out at 0, 40, 48 and 88; this fails to
// compile otherwise.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(ifmaConst{}.k)-40]
	_ = [1]struct{}{}[unsafe.Offsetof(ifmaConst{}.in)-48]
	_ = [1]struct{}{}[unsafe.Offsetof(ifmaConst{}.out)-88]
)

const mask52 = 1<<52 - 1

// newIFMAConst derives the IFMA kernel's constants of m.
func newIFMAConst(m *Modulus) ifmaConst {
	pow := func(e uint) Limbs {
		v := new(big.Int).Lsh(big.NewInt(1), e)
		return fromBig(v.Mod(v, m.Big))
	}
	return ifmaConst{
		q:      split52(m.M),
		k:      m.Inv & mask52,
		in:     split52(pow(264)),
		out:    split52(pow(256)),
		scalar: pow(260),
		lanes:  pow(262),
	}
}

// split52 cuts a value below 2^256 into five 52-bit limbs.
func split52(a Limbs) [5]uint64 {
	return [5]uint64{
		a[0] & mask52,
		(a[0]>>52 | a[1]<<12) & mask52,
		(a[1]>>40 | a[2]<<24) & mask52,
		(a[2]>>28 | a[3]<<36) & mask52,
		a[3] >> 16,
	}
}

// BlockKernel names the kernel the block operations run on this machine:
// "ifma" (AVX-512 IFMA assembly) or "portable" (loops over MontMul and Add).
func BlockKernel() string {
	if hasIFMA {
		return "ifma"
	}
	return "portable"
}

// useIFMA reports whether m's block operations run the IFMA kernels: the
// CPU has them and m is not a Portable copy.
func (m *Modulus) useIFMA() bool { return hasIFMA && !m.portable }

// Portable returns a copy of m whose block operations run the portable
// kernels on every CPU: the reference the IFMA kernels are held to by
// tests of the code above them. Blocks pass only between the operations of
// one of the two.
func (m *Modulus) Portable() *Modulus {
	p := *m
	p.portable = true
	return &p
}

// checkRows panics unless 1 ≤ n ≤ BlockRows: the kernels trust n.
func checkRows(n int) {
	if uint(n-1) >= BlockRows {
		panic("limbs: block row count out of range")
	}
}

// vectors is the number of eight-lane vectors n rows take.
func vectors(n int) int { return (n + 7) / 8 }

// rows views a Block in the portable layout.
func rows(b *Block) *[BlockRows]Limbs { return (*[BlockRows]Limbs)(unsafe.Pointer(b)) }

// LoadBlock sets the first len(src) rows of z to src, MontMul-form values
// below M; 1 ≤ len(src) ≤ BlockRows. Rows past len(src) are left
// unspecified, as every block operation leaves the rows past its n.
func (m *Modulus) LoadBlock(z *Block, src []Limbs) {
	checkRows(len(src))
	if m.useIFMA() {
		blockLoadIFMA(z, &src[0], len(src), &m.ifma)
		return
	}
	loadBlockPortable(z, src)
}

// StoreBlock writes the first len(dst) rows of x to dst in MontMul form;
// 1 ≤ len(dst) ≤ BlockRows.
func (m *Modulus) StoreBlock(dst []Limbs, x *Block) {
	checkRows(len(dst))
	if m.useIFMA() {
		blockStoreIFMA(&dst[0], x, len(dst), &m.ifma)
		return
	}
	storeBlockPortable(dst, x)
}

// BlockScalarOf sets s to v, a MontMul-form value below M, in the block
// kernel's form.
func (m *Modulus) BlockScalarOf(s *BlockScalar, v *Limbs) {
	if m.useIFMA() {
		m.scalarIFMA(s, v)
		return
	}
	scalarPortable(s, v)
}

// BroadcastBlock sets every row of z to s.
func (m *Modulus) BroadcastBlock(z *Block, s *BlockScalar) {
	if m.useIFMA() {
		broadcastIFMA(z, s)
		return
	}
	broadcastPortable(z, s)
}

// MulBlock sets the first n rows of z to the products of x's and y's rows.
// z may alias x or y, as in every block operation.
func (m *Modulus) MulBlock(z, x, y *Block, n int) {
	checkRows(n)
	if m.useIFMA() {
		blockMulIFMA(z, x, y, vectors(n), &m.ifma)
		return
	}
	m.mulBlockPortable(z, x, y, n)
}

// MulBlockScalar sets the first n rows of z to x's rows times s.
func (m *Modulus) MulBlockScalar(z, x *Block, s *BlockScalar, n int) {
	checkRows(n)
	if m.useIFMA() {
		blockMulScalarIFMA(z, x, s, vectors(n), &m.ifma)
		return
	}
	m.mulBlockScalarPortable(z, x, s, n)
}

// AddBlock sets the first n rows of z to the sums of x's and y's rows.
func (m *Modulus) AddBlock(z, x, y *Block, n int) {
	checkRows(n)
	if m.useIFMA() {
		blockAddIFMA(z, x, y, vectors(n), &m.ifma)
		return
	}
	m.addBlockPortable(z, x, y, n)
}

// SubBlock sets the first n rows of z to x's rows minus y's.
func (m *Modulus) SubBlock(z, x, y *Block, n int) {
	checkRows(n)
	if m.useIFMA() {
		blockSubIFMA(z, x, y, vectors(n), &m.ifma)
		return
	}
	m.subBlockPortable(z, x, y, n)
}

// NegBlock sets the first n rows of z to the negations of x's rows.
func (m *Modulus) NegBlock(z, x *Block, n int) {
	checkRows(n)
	if m.useIFMA() {
		blockNegIFMA(z, x, vectors(n), &m.ifma)
		return
	}
	m.negBlockPortable(z, x, n)
}

// The portable block kernels: the only ones off amd64 or on CPUs without
// IFMA, and the reference the IFMA kernels are tested against. Each is a
// loop over the one-value operation, so it runs MontMul's ADX assembly
// where the CPU has it.

func loadBlockPortable(z *Block, src []Limbs) { copy(rows(z)[:], src) }

func storeBlockPortable(dst []Limbs, x *Block) { copy(dst, rows(x)[:]) }

func scalarPortable(s *BlockScalar, v *Limbs) { *s = BlockScalar{v[0], v[1], v[2], v[3]} }

func broadcastPortable(z *Block, s *BlockScalar) {
	for i := range rows(z) {
		rows(z)[i] = Limbs{s[0], s[1], s[2], s[3]}
	}
}

func (m *Modulus) mulBlockPortable(z, x, y *Block, n int) {
	zr, xr, yr := rows(z), rows(x), rows(y)
	for i := 0; i < n; i++ {
		m.MontMul(&zr[i], &xr[i], &yr[i])
	}
}

func (m *Modulus) mulBlockScalarPortable(z, x *Block, s *BlockScalar, n int) {
	zr, xr := rows(z), rows(x)
	c := Limbs{s[0], s[1], s[2], s[3]}
	for i := 0; i < n; i++ {
		m.MontMul(&zr[i], &xr[i], &c)
	}
}

func (m *Modulus) addBlockPortable(z, x, y *Block, n int) {
	zr, xr, yr := rows(z), rows(x), rows(y)
	for i := 0; i < n; i++ {
		m.Add(&zr[i], &xr[i], &yr[i])
	}
}

func (m *Modulus) subBlockPortable(z, x, y *Block, n int) {
	zr, xr, yr := rows(z), rows(x), rows(y)
	for i := 0; i < n; i++ {
		m.Sub(&zr[i], &xr[i], &yr[i])
	}
}

func (m *Modulus) negBlockPortable(z, x *Block, n int) {
	zr, xr := rows(z), rows(x)
	for i := 0; i < n; i++ {
		m.Neg(&zr[i], &xr[i])
	}
}

// scalarIFMA is BlockScalarOf on the IFMA kernel: one MontMul by 2^260
// takes v from R = 2^256 to 2^260, then the value is cut into 52-bit limbs.
func (m *Modulus) scalarIFMA(s *BlockScalar, v *Limbs) {
	var t Limbs
	m.MontMul(&t, v, &m.ifma.scalar)
	*s = split52(t)
}

// broadcastIFMA is BroadcastBlock in the IFMA layout.
func broadcastIFMA(z *Block, s *BlockScalar) {
	for v := 0; v < BlockRows/8; v++ {
		for j, l := range s {
			for lane := 0; lane < 8; lane++ {
				z[40*v+8*j+lane] = l
			}
		}
	}
}
