package limbs

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// blockKernel is one implementation of the block operations, so a test can
// run the portable and the IFMA kernels side by side on one CPU.
type blockKernel struct {
	name      string
	load      func(m *Modulus, z *Block, src []Limbs)
	store     func(m *Modulus, dst []Limbs, x *Block)
	scalar    func(m *Modulus, s *BlockScalar, v *Limbs)
	broadcast func(m *Modulus, z *Block, s *BlockScalar)
	mul       func(m *Modulus, z, x, y *Block, n int)
	mulScalar func(m *Modulus, z, x *Block, s *BlockScalar, n int)
	add       func(m *Modulus, z, x, y *Block, n int)
	sub       func(m *Modulus, z, x, y *Block, n int)
	neg       func(m *Modulus, z, x *Block, n int)
}

var portableKernel = blockKernel{
	name:      "portable",
	load:      func(m *Modulus, z *Block, src []Limbs) { loadBlockPortable(z, src) },
	store:     func(m *Modulus, dst []Limbs, x *Block) { storeBlockPortable(dst, x) },
	scalar:    func(m *Modulus, s *BlockScalar, v *Limbs) { scalarPortable(s, v) },
	broadcast: func(m *Modulus, z *Block, s *BlockScalar) { broadcastPortable(z, s) },
	mul:       (*Modulus).mulBlockPortable,
	mulScalar: (*Modulus).mulBlockScalarPortable,
	add:       (*Modulus).addBlockPortable,
	sub:       (*Modulus).subBlockPortable,
	neg:       (*Modulus).negBlockPortable,
}

var ifmaKernel = blockKernel{
	name:      "ifma",
	load:      func(m *Modulus, z *Block, src []Limbs) { blockLoadIFMA(z, &src[0], len(src), &m.ifma) },
	store:     func(m *Modulus, dst []Limbs, x *Block) { blockStoreIFMA(&dst[0], x, len(dst), &m.ifma) },
	scalar:    (*Modulus).scalarIFMA,
	broadcast: func(m *Modulus, z *Block, s *BlockScalar) { broadcastIFMA(z, s) },
	mul:       func(m *Modulus, z, x, y *Block, n int) { blockMulIFMA(z, x, y, vectors(n), &m.ifma) },
	mulScalar: func(m *Modulus, z, x *Block, s *BlockScalar, n int) {
		blockMulScalarIFMA(z, x, s, vectors(n), &m.ifma)
	},
	add: func(m *Modulus, z, x, y *Block, n int) { blockAddIFMA(z, x, y, vectors(n), &m.ifma) },
	sub: func(m *Modulus, z, x, y *Block, n int) { blockSubIFMA(z, x, y, vectors(n), &m.ifma) },
	neg: func(m *Modulus, z, x *Block, n int) { blockNegIFMA(z, x, vectors(n), &m.ifma) },
}

// blockKernels are the kernels this CPU can run: the portable one always,
// the IFMA one where hasIFMA.
func blockKernels() []blockKernel {
	if hasIFMA {
		return []blockKernel{portableKernel, ifmaKernel}
	}
	return []blockKernel{portableKernel}
}

// blockWant is what every block operation must give on MontMul-form
// operands x, y and s, computed with big.Int.
func blockWant(mod *Modulus, x, y []Limbs, s Limbs) (mul, mulScalar, add, sub, neg []Limbs) {
	rInv := new(big.Int).Lsh(big.NewInt(1), 256)
	rInv.ModInverse(rInv, mod.Big)
	bs := ToBig(&s)
	for i := range x {
		bx, by := ToBig(&x[i]), ToBig(&y[i])
		v := new(big.Int)
		mul = append(mul, mod.FromBig(v.Mul(bx, by).Mul(v, rInv)))
		mulScalar = append(mulScalar, mod.FromBig(v.Mul(bx, bs).Mul(v, rInv)))
		add = append(add, mod.FromBig(v.Add(bx, by)))
		sub = append(sub, mod.FromBig(v.Sub(bx, by)))
		neg = append(neg, mod.FromBig(v.Neg(bx)))
	}
	return
}

// checkBlockKernel runs every operation of k on the n-row operands x and y
// and the scalar s, into a fresh block and into one aliasing an input, and
// holds each stored result to big.Int. A store must not touch dst past n.
func checkBlockKernel(t testing.TB, mod *Modulus, k blockKernel, x, y []Limbs, s Limbs) {
	t.Helper()
	n := len(x)
	wantMul, wantMulS, wantAdd, wantSub, wantNeg := blockWant(mod, x, y, s)
	guard := Limbs{0xdead, 0xbeef, 0xf00d, 0xcafe}
	check := func(op string, want []Limbs, b *Block) {
		t.Helper()
		dst := make([]Limbs, BlockRows)
		for i := range dst {
			dst[i] = guard
		}
		k.store(mod, dst[:n], b)
		for i := range dst {
			if i < n && dst[i] != want[i] {
				t.Fatalf("%s %s, %d rows, modulus %s: row %d = %s, want %s (x %s, y %s)",
					k.name, op, n, mod.Big, i, String(&dst[i]), String(&want[i]), String(&x[i]), String(&y[i]))
			}
			if i >= n && dst[i] != guard {
				t.Fatalf("%s %s, %d rows: store wrote row %d", k.name, op, n, i)
			}
		}
	}
	var bx, by, bz Block
	var bs BlockScalar
	load := func() {
		k.load(mod, &bx, x)
		k.load(mod, &by, y)
	}
	load()
	k.scalar(mod, &bs, &s)
	check("load/store", x, &bx)

	k.mul(mod, &bz, &bx, &by, n)
	check("mul", wantMul, &bz)
	k.mulScalar(mod, &bz, &bx, &bs, n)
	check("mul by scalar", wantMulS, &bz)
	var bb Block
	k.broadcast(mod, &bb, &bs)
	k.mul(mod, &bz, &bx, &bb, n)
	check("mul by broadcast", wantMulS, &bz)
	k.add(mod, &bz, &bx, &by, n)
	check("add", wantAdd, &bz)
	k.sub(mod, &bz, &bx, &by, n)
	check("sub", wantSub, &bz)
	k.neg(mod, &bz, &bx, n)
	check("neg", wantNeg, &bz)

	// The output aliasing an input.
	k.mul(mod, &bx, &bx, &by, n)
	check("mul into x", wantMul, &bx)
	load()
	k.mul(mod, &by, &bx, &by, n)
	check("mul into y", wantMul, &by)
	load()
	k.mulScalar(mod, &bx, &bx, &bs, n)
	check("mul by scalar into x", wantMulS, &bx)
	load()
	k.add(mod, &by, &bx, &by, n)
	check("add into y", wantAdd, &by)
	load()
	k.sub(mod, &by, &bx, &by, n)
	check("sub into y", wantSub, &by)
	load()
	k.neg(mod, &bx, &bx, n)
	check("neg into x", wantNeg, &bx)
}

// TestBlockKernelsAgree holds every block kernel this CPU runs — the IFMA
// one where it has AVX-512 IFMA, the portable one always — to big.Int, and
// so to each other, on both BN254 moduli and the edge modulus: edge values
// (0, 1, R, M−1, M−2, all-ones patterns) and random ones, in blocks of 1 to
// BlockRows rows.
func TestBlockKernelsAgree(t *testing.T) {
	if !hasIFMA {
		t.Logf("kernel %q: checking the portable block kernel only", Kernel())
	}
	rng := rand.New(rand.NewSource(3))
	for _, mod := range []*Modulus{m, fpM, edgeM} {
		vals := kernelOperands(mod, rng, 40)
		for _, k := range blockKernels() {
			for n := 1; n <= BlockRows; n++ {
				for start := 0; start+n <= len(vals); start += 5 {
					x := vals[start : start+n]
					y := make([]Limbs, n)
					for i := range y {
						y[i] = vals[(start*7+3*i+1)%len(vals)]
					}
					checkBlockKernel(t, mod, k, x, y, vals[(start+n)%len(vals)])
				}
			}
		}
	}
}

// FuzzBlockKernels runs checkBlockKernel on fuzzed operands: a seed for the
// values, a row count and how many of them are edge values, for each
// modulus of TestBlockKernelsAgree.
func FuzzBlockKernels(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1))
	f.Add(int64(3), uint8(9), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, n, edges uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows := int(n)%BlockRows + 1
		for _, mod := range []*Modulus{m, fpM, edgeM} {
			vals := kernelOperands(mod, rng, 2*BlockRows+1)
			pick := func() Limbs {
				if edges > 0 {
					edges--
					return vals[rng.Intn(len(vals)-2*BlockRows-1)]
				}
				return vals[len(vals)-1-rng.Intn(2*BlockRows+1)]
			}
			x, y := make([]Limbs, rows), make([]Limbs, rows)
			for i := range x {
				x[i], y[i] = pick(), pick()
			}
			s := pick()
			for _, k := range blockKernels() {
				checkBlockKernel(t, mod, k, x, y, s)
			}
		}
	})
}

// BenchmarkBlockKernels times each block kernel this CPU runs on full
// blocks and reports ns per row: a product, a product by a scalar, a sum,
// and a load plus store (the conversion of a value in and out).
func BenchmarkBlockKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	vals := kernelOperands(m, rng, 2*BlockRows)
	src := vals[len(vals)-BlockRows:]
	for _, k := range blockKernels() {
		var x, y Block
		var s BlockScalar
		k.load(m, &x, src)
		k.load(m, &y, vals[len(vals)-2*BlockRows:len(vals)-BlockRows])
		k.scalar(m, &s, &src[0])
		dst := make([]Limbs, BlockRows)
		for _, c := range []struct {
			op  string
			run func()
		}{
			{"mul", func() { k.mul(m, &x, &x, &y, BlockRows) }},
			{"mul-scalar", func() { k.mulScalar(m, &x, &x, &s, BlockRows) }},
			{"add", func() { k.add(m, &x, &x, &y, BlockRows) }},
			{"load-store", func() { k.load(m, &x, src); k.store(m, dst, &x) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", k.name, c.op), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BlockRows), "ns/row")
			})
		}
	}
}
