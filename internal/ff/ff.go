// Package ff implements the BN254 scalar field Fr, the field over which all
// circuit values live. Fr is NTT-friendly: r - 1 = 2^28 · odd, so
// multiplicative subgroups of size up to 2^28 exist, matching the largest
// circuits supported by the perpetual-powers-of-tau setup the paper uses.
package ff

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
	"unsafe"

	"repro/internal/limbs"
)

// ModulusDec is the BN254 scalar field modulus r in decimal.
const ModulusDec = "21888242871839275222246405745257275088548364400416034343698204186575808495617"

// TwoAdicity is s where r - 1 = 2^s * odd.
const TwoAdicity = 28

var (
	mod = limbs.NewModulus(ModulusDec)

	// rootOfUnity is a generator of the order-2^TwoAdicity subgroup,
	// in Montgomery form.
	rootOfUnity limbs.Limbs

	// multiplicativeGen is a fixed element of large order used to build
	// distinct cosets for the permutation argument (Montgomery form).
	multiplicativeGen limbs.Limbs
)

func init() {
	// Find an element of order exactly 2^TwoAdicity: for candidates c =
	// 2, 3, ..., compute w = c^((r-1)/2^s); w has order dividing 2^s and
	// order exactly 2^s iff w^(2^(s-1)) != 1.
	exp := new(big.Int).Sub(mod.Big, big.NewInt(1))
	exp.Rsh(exp, TwoAdicity)
	for c := int64(2); ; c++ {
		cand := NewElement(uint64(c))
		var w Element
		mod.Exp(&w.l, &cand.l, exp)
		chk := w
		for i := 0; i < TwoAdicity-1; i++ {
			chk.Square(&chk)
		}
		if !chk.IsOne() {
			rootOfUnity = w.l
			break
		}
	}
	// 5 is the conventional multiplicative generator for BN254 Fr; the
	// permutation argument only needs its cosets δ^i·H to be pairwise
	// disjoint for small i, which holds for any non-subgroup element.
	multiplicativeGen = NewElement(5).l
}

// Element is an Fr element stored in Montgomery form.
type Element struct {
	l limbs.Limbs
}

// Modulus returns the field modulus as a new big.Int.
func Modulus() *big.Int { return new(big.Int).Set(mod.Big) }

// NewElement returns v as a field element.
func NewElement(v uint64) Element {
	var e Element
	e.SetUint64(v)
	return e
}

// NewInt64 returns v as a field element; negative values map to r - |v|.
func NewInt64(v int64) Element {
	if v >= 0 {
		return NewElement(uint64(v))
	}
	var e Element
	e.SetUint64(uint64(-v))
	e.Neg(&e)
	return e
}

// Zero returns the additive identity.
func Zero() Element { return Element{} }

// One returns the multiplicative identity.
func One() Element { return Element{l: mod.R} }

// SetUint64 sets z to v and returns z.
func (z *Element) SetUint64(v uint64) *Element {
	z.l = limbs.Limbs{v}
	mod.MontMul(&z.l, &z.l, &mod.R2)
	return z
}

// SetBigInt sets z to v mod r and returns z.
func (z *Element) SetBigInt(v *big.Int) *Element {
	z.l = mod.FromBig(v)
	mod.MontMul(&z.l, &z.l, &mod.R2)
	return z
}

// BigInt returns the canonical (non-Montgomery) value of z.
func (z *Element) BigInt() *big.Int {
	var out limbs.Limbs
	one := limbs.Limbs{1}
	mod.MontMul(&out, &z.l, &one)
	return limbs.ToBig(&out)
}

// Limbs returns the canonical (non-Montgomery) value of z as four
// little-endian 64-bit limbs. Unlike BigInt().Bits(), the layout does not
// depend on the platform word size (big.Word is 32 bits on 32-bit
// platforms, where packing four words into [4]uint64 would drop the top 128
// bits of every scalar), and no heap allocation occurs. This is the scalar
// form the MSM kernels consume.
func (z *Element) Limbs() [4]uint64 {
	var out limbs.Limbs
	one := limbs.Limbs{1}
	mod.MontMul(&out, &z.l, &one)
	return out
}

// Int64 returns the value of z interpreted as a signed integer: values in
// [0, r/2) map to themselves, values in [r/2, r) map to negatives. Panics if
// the magnitude exceeds int64 range; circuit values are always small.
func (z *Element) Int64() int64 {
	v := z.BigInt()
	half := new(big.Int).Rsh(mod.Big, 1)
	if v.Cmp(half) > 0 {
		v.Sub(v, mod.Big)
	}
	if !v.IsInt64() {
		panic(fmt.Sprintf("ff: element %s out of int64 range", v))
	}
	return v.Int64()
}

// randSource feeds SetRandom/Random. It defaults to crypto/rand and is only
// replaced by tests (see SetRandomSource); the prover draws all blinding
// randomness on a single goroutine, so no locking is needed there.
var randSource io.Reader = rand.Reader

// SetRandomSource replaces the randomness source behind SetRandom/Random
// and returns the previous one; nil restores crypto/rand. It exists so
// tests can make proofs reproducible (e.g. to check that the parallel
// prover is transcript-identical to the serial one). Deterministic replay
// additionally requires that all draws happen in a fixed order, which the
// prover guarantees by drawing blinding rows on its own goroutine only.
// Not safe to call concurrently with draws; production code never calls it.
func SetRandomSource(r io.Reader) io.Reader {
	prev := randSource
	if r == nil {
		r = rand.Reader
	}
	randSource = r
	return prev
}

// SetRandom sets z to a uniformly random field element.
func (z *Element) SetRandom() *Element {
	v, err := rand.Int(randSource, mod.Big)
	if err != nil {
		panic(err) // randomness failure is unrecoverable
	}
	return z.SetBigInt(v)
}

// Random returns a uniformly random element.
func Random() Element {
	var e Element
	e.SetRandom()
	return e
}

// RandomFrom returns a uniformly random element drawn from r; a nil r
// draws from the process source (see SetRandomSource). The sharded prover
// hands each chunk its own stream so that concurrently proving chunks
// never interleave draws on the shared source, keeping proofs independent
// of the goroutine schedule.
func RandomFrom(r io.Reader) Element {
	if r == nil {
		r = randSource
	}
	v, err := rand.Int(r, mod.Big)
	if err != nil {
		panic(err) // randomness failure is unrecoverable
	}
	var e Element
	return *e.SetBigInt(v)
}

// Arithmetic. All methods follow the math/big convention: z.Op(x, y) sets
// z = x op y and returns z, and aliasing of arguments is allowed.

// Add sets z = x + y.
func (z *Element) Add(x, y *Element) *Element { mod.Add(&z.l, &x.l, &y.l); return z }

// Sub sets z = x - y.
func (z *Element) Sub(x, y *Element) *Element { mod.Sub(&z.l, &x.l, &y.l); return z }

// Mul sets z = x * y.
func (z *Element) Mul(x, y *Element) *Element { mod.MontMul(&z.l, &x.l, &y.l); return z }

// Block holds BlockRows field elements in the layout of one block kernel
// (limbs.Block): the unit the compiled quotient program is evaluated in and
// the NTT runs its stages on. The block operations of a BlockKernel apply
// one operation to the first n rows of their blocks, 1 ≤ n ≤ BlockRows; z
// may alias x or y.
type Block = limbs.Block

// BlockScalar is one element in a block kernel's form: the broadcast
// operand of MulBlockScalar and BroadcastBlock.
type BlockScalar = limbs.BlockScalar

// InBlockTwiddles holds an NTT's in-block twiddles in a block kernel's form
// (limbs.InBlockTwiddles).
type InBlockTwiddles = limbs.InBlockTwiddles

// BlockRows is the number of rows a Block holds.
const BlockRows = limbs.BlockRows

// BlockKernel runs the block operations on one block kernel: Blocks, the
// kernel this CPU runs (AVX-512 IFMA where it has it), or PortableBlocks,
// the portable reference tests hold it to. Blocks pass only between the
// operations of one kernel.
type BlockKernel struct{ m *limbs.Modulus }

var (
	// Blocks is the block kernel this CPU runs.
	Blocks = BlockKernel{mod}
	// PortableBlocks runs the portable block kernel on every CPU.
	PortableBlocks = BlockKernel{mod.Portable()}
)

// LoadBlock sets the first len(src) rows of z to src, 1 ≤ len(src) ≤
// BlockRows, in the form of operands and tables (limbs.Modulus.LoadBlock).
func (k BlockKernel) LoadBlock(z *Block, src []Element) { k.m.LoadBlock(z, limbsOf(src)) }

// StoreBlock writes the first len(dst) rows of x, a LoadBlock-form block,
// to dst; 1 ≤ len(dst) ≤ BlockRows.
func (k BlockKernel) StoreBlock(dst []Element, x *Block) { k.m.StoreBlock(limbsOf(dst), x) }

// BlockScalarOf sets s to v in the block kernel's form.
func (k BlockKernel) BlockScalarOf(s *BlockScalar, v *Element) { k.m.BlockScalarOf(s, &v.l) }

// BroadcastBlock sets every row of z to s.
func (k BlockKernel) BroadcastBlock(z *Block, s *BlockScalar) { k.m.BroadcastBlock(z, s) }

// MulBlock sets z = x·y on the first n rows.
func (k BlockKernel) MulBlock(z, x, y *Block, n int) { k.m.MulBlock(z, x, y, n) }

// MulBlockScalar sets z = x·s on the first n rows.
func (k BlockKernel) MulBlockScalar(z, x *Block, s *BlockScalar, n int) {
	k.m.MulBlockScalar(z, x, s, n)
}

// AddBlock sets z = x + y on the first n rows.
func (k BlockKernel) AddBlock(z, x, y *Block, n int) { k.m.AddBlock(z, x, y, n) }

// NegBlock sets z = −x on the first n rows.
func (k BlockKernel) NegBlock(z, x *Block, n int) { k.m.NegBlock(z, x, n) }

// GatherBlock sets row r of z to src[idx[r]] for r < n in the NTT's data
// form, whose product by a LoadBlock-form block is again data
// (limbs.Modulus.GatherBlock).
func (k BlockKernel) GatherBlock(z *Block, src []Element, idx *[BlockRows]int, n int) {
	k.m.GatherBlock(z, limbsOf(src), idx, n)
}

// PutBlock writes the first len(dst) rows of x, a data block, to dst.
func (k BlockKernel) PutBlock(dst []Element, x *Block) { k.m.PutBlock(limbsOf(dst), x) }

// Butterflies runs NTT butterflies between the data blocks of x under the
// twiddle blocks w (limbs.Modulus.Butterflies).
func (k BlockKernel) Butterflies(x []Block, groups, dist, cnt int, w []Block) {
	k.m.Butterflies(x, groups, dist, cnt, w)
}

// InBlockStages runs the first stages of an NTT's in-block stages on the
// data blocks of x (limbs.Modulus.InBlockStages).
func (k BlockKernel) InBlockStages(x []Block, t *InBlockTwiddles, stages int) {
	k.m.InBlockStages(x, t, stages)
}

// InBlockTwiddlesOf sets t to the in-block twiddles of a transform whose
// primitive 16th root of unity is w16.
func (k BlockKernel) InBlockTwiddlesOf(t *InBlockTwiddles, w16 *Element) {
	k.m.InBlockTwiddlesOf(t, &w16.l)
}

// An Element is exactly its four limbs, 32 bytes, so a slice of elements is
// a slice of limbs in place: limbsOf relies on it, and this fails to compile
// otherwise.
var _ = [1]struct{}{}[unsafe.Sizeof(Element{})-32]

// limbsOf returns v's memory as limbs, without copying.
func limbsOf(v []Element) []limbs.Limbs {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice(&v[0].l, len(v))
}

// Square sets z = x^2.
func (z *Element) Square(x *Element) *Element { mod.MontSquare(&z.l, &x.l); return z }

// Double sets z = 2x.
func (z *Element) Double(x *Element) *Element { mod.Double(&z.l, &x.l); return z }

// Neg sets z = -x.
func (z *Element) Neg(x *Element) *Element { mod.Neg(&z.l, &x.l); return z }

// Inverse sets z = x^{-1}; panics on zero.
func (z *Element) Inverse(x *Element) *Element { mod.Inverse(&z.l, &x.l); return z }

// Exp sets z = x^e.
func (z *Element) Exp(x *Element, e *big.Int) *Element {
	if e.Sign() < 0 {
		var inv Element
		inv.Inverse(x)
		return z.Exp(&inv, new(big.Int).Neg(e))
	}
	mod.Exp(&z.l, &x.l, e)
	return z
}

// ExpUint64 sets z = x^e for machine-word exponents without allocating
// (unlike Exp, which builds a big.Int); this is the form the prover's
// vanishing-polynomial and power-reseed paths use.
func (z *Element) ExpUint64(x *Element, e uint64) *Element {
	mod.ExpUint64(&z.l, &x.l, e)
	return z
}

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool { return limbs.IsZero(&z.l) }

// IsOne reports whether z == 1.
func (z *Element) IsOne() bool { return limbs.Equal(&z.l, &mod.R) }

// Equal reports whether z == x.
func (z *Element) Equal(x *Element) bool { return limbs.Equal(&z.l, &x.l) }

// Bytes returns the canonical 32-byte big-endian encoding.
func (z Element) Bytes() [32]byte {
	var out [32]byte
	b := z.BigInt().Bytes()
	copy(out[32-len(b):], b)
	return out
}

// SetBytes sets z from a 32-byte big-endian encoding (reduced mod r).
func (z *Element) SetBytes(b []byte) *Element {
	return z.SetBigInt(new(big.Int).SetBytes(b))
}

// String renders the canonical value in decimal, using a compact signed form
// for values near the modulus (handy when debugging fixed-point circuits).
func (z Element) String() string {
	v := z.BigInt()
	half := new(big.Int).Rsh(mod.Big, 1)
	if v.Cmp(half) > 0 {
		v.Sub(v, mod.Big)
	}
	return v.String()
}

// RootOfUnity returns a primitive 2^logN-th root of unity. Panics if
// logN > TwoAdicity.
func RootOfUnity(logN int) Element {
	if logN > TwoAdicity {
		panic(fmt.Sprintf("ff: no 2^%d-th root of unity (2-adicity %d)", logN, TwoAdicity))
	}
	w := Element{l: rootOfUnity}
	for i := TwoAdicity; i > logN; i-- {
		w.Square(&w)
	}
	return w
}

// MultiplicativeGen returns δ, used for permutation-argument coset ids.
func MultiplicativeGen() Element { return Element{l: multiplicativeGen} }

// BatchInverse inverts all elements of v in place using Montgomery's trick
// (a single field inversion plus 3(n-1) multiplications). Zero entries are
// left as zero.
func BatchInverse(v []Element) {
	n := len(v)
	if n == 0 {
		return
	}
	prefix := make([]Element, n)
	acc := One()
	for i, x := range v {
		prefix[i] = acc
		if !x.IsZero() {
			acc.Mul(&acc, &x)
		}
	}
	var inv Element
	inv.Inverse(&acc)
	for i := n - 1; i >= 0; i-- {
		if v[i].IsZero() {
			continue
		}
		var tmp Element
		tmp.Mul(&inv, &prefix[i])
		inv.Mul(&inv, &v[i])
		v[i] = tmp
	}
}

// HashToField maps arbitrary bytes to a field element. Two domain-separated
// SHA-256 digests of the input are concatenated into a 64-byte integer
// before reduction mod r, so the output is statistically uniform (bias
// < 2^-(512-254)). The previous implementation reduced the raw input bytes
// directly, which is only uniform when the caller already supplies wide
// hash output.
func HashToField(b []byte) Element {
	h := sha256.New()
	h.Write([]byte{0})
	h.Write(b)
	d1 := h.Sum(nil)
	h.Reset()
	h.Write([]byte{1})
	h.Write(b)
	wide := new(big.Int).SetBytes(h.Sum(d1))
	var e Element
	e.SetBigInt(wide)
	return e
}
