package limbs

import (
	"math/big"
	"math/rand"
	"testing"
)

// addRunCase is one AddRun batch: the coordinates each op reads, by value,
// so every kernel can run on its own copy.
type addRunCase struct {
	p, q []([2]Limbs)
	neg  []bool
}

// newAddRunCase draws n ops from vals, shaping op i by kinds[i%len(kinds)]
// (mod 6): 0 a general sum, 1 Q = P (a doubling), 2 Q = −P added negated (a
// doubling), 3 Q = −P (a cancellation), 4 Q = P added negated (a
// cancellation), 5 x_q = x_p with an unrelated y (a cancellation to the
// kernels: x is equal and the numerator is not zero). Other relations come
// from vals' own edge values. Coordinates are never both zero.
func newAddRunCase(mod *Modulus, vals []Limbs, rng *rand.Rand, n int, kinds []byte) addRunCase {
	pick := func() Limbs { return vals[rng.Intn(len(vals))] }
	var c addRunCase
	for i := 0; i < n; i++ {
		p := [2]Limbs{pick(), pick()}
		if p == ([2]Limbs{}) {
			p[1] = mod.R
		}
		q, neg := [2]Limbs{pick(), pick()}, rng.Intn(2) == 1
		var negY Limbs
		mod.Neg(&negY, &p[1])
		switch kinds[i%len(kinds)] % 6 {
		case 1:
			q, neg = p, false
		case 2:
			q, neg = [2]Limbs{p[0], negY}, true
		case 3:
			q, neg = [2]Limbs{p[0], negY}, false
		case 4:
			q, neg = p, true
		case 5:
			q[0] = p[0]
		}
		if q == ([2]Limbs{}) {
			q[0] = mod.R
		}
		c.p, c.q, c.neg = append(c.p, p), append(c.q, q), append(c.neg, neg)
	}
	return c
}

// ops returns the case's ops over fresh copies of its P coordinates, and
// those copies, which the run overwrites.
func (c addRunCase) ops() ([]AddOp, [][2]Limbs) {
	p := append([][2]Limbs(nil), c.p...)
	ops := make([]AddOp, len(p))
	for i := range ops {
		ops[i] = AddOp{P: &p[i], Q: &c.q[i], Neg: c.neg[i]}
	}
	return ops, p
}

// want computes every sum with big.Int on the values the Montgomery forms
// stand for.
func (c addRunCase) want(mod *Modulus) [][2]Limbs {
	M := mod.Big
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	rInv := new(big.Int).ModInverse(r, M)
	val := func(l Limbs) *big.Int { v := ToBig(&l); return v.Mul(v, rInv).Mod(v, M) }
	mont := func(v *big.Int) Limbs { return mod.FromBig(new(big.Int).Mul(v, r)) }
	out := make([][2]Limbs, len(c.p))
	for i := range c.p {
		x1, y1 := val(c.p[i][0]), val(c.p[i][1])
		x2, y2 := val(c.q[i][0]), val(c.q[i][1])
		if c.neg[i] {
			y2.Neg(y2).Mod(y2, M)
		}
		var num, den *big.Int
		switch {
		case x1.Cmp(x2) != 0:
			num, den = new(big.Int).Sub(y2, y1), new(big.Int).Sub(x2, x1)
		case y1.Cmp(y2) == 0 && y1.Sign() != 0:
			num = new(big.Int).Mul(x1, x1)
			num.Mul(num, big.NewInt(3))
			den = new(big.Int).Lsh(y1, 1)
		default:
			continue // the point at infinity: (0, 0)
		}
		lam := new(big.Int).ModInverse(den.Mod(den, M), M)
		lam.Mul(lam, num).Mod(lam, M)
		x3 := new(big.Int).Mul(lam, lam)
		x3.Sub(x3, x1).Sub(x3, x2).Mod(x3, M)
		y3 := new(big.Int).Sub(x1, x3)
		y3.Mul(y3, lam).Sub(y3, y1).Mod(y3, M)
		out[i] = [2]Limbs{mont(x3), mont(y3)}
	}
	return out
}

// addRunKernel is one AddRun kernel, by name.
type addRunKernel struct {
	name string
	run  func(m *Modulus, ops []AddOp, scratch []Limbs)
}

// addRunKernels returns every AddRun kernel this CPU runs: generic always,
// adx with BMI2 and ADX, ifma with AVX-512 IFMA.
func addRunKernels() []addRunKernel {
	ks := []addRunKernel{{"generic", (*Modulus).addRunGeneric}}
	if hasADX {
		ks = append(ks, addRunKernel{"adx", (*Modulus).addRunADX})
	}
	if hasIFMA {
		ks = append(ks, addRunKernel{"ifma", (*Modulus).addRunIFMA})
	}
	return ks
}

// checkAddRun runs the case through every kernel by name and through the
// dispatching AddRun, each on scratch filled with junk and starting on
// both halves of a 64-byte line, and holds each to big.Int.
func checkAddRun(t testing.TB, mod *Modulus, c addRunCase) {
	t.Helper()
	want := c.want(mod)
	n := len(c.p)
	if n == 0 {
		mod.AddRun(nil, nil)
		return
	}
	kernels := append(addRunKernels(), addRunKernel{"dispatch", (*Modulus).AddRun})
	buf := make([]Limbs, AddRunScratch(n)+1)
	for _, k := range kernels {
		for off := 0; off < 2; off++ {
			scratch := buf[off:]
			for i := range scratch {
				scratch[i] = Limbs{^uint64(i), 1 << 63, uint64(i), ^uint64(0)}
			}
			ops, got := c.ops()
			k.run(mod, ops, scratch)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s AddRun op %d of %d (neg %v, scratch offset %d): got %v, want %v",
						k.name, i, n, c.neg[i], off, got[i], want[i])
				}
			}
		}
	}
}

// TestAddRunKernelsAgree holds every AddRun kernel to big.Int on both
// BN254 moduli (the run inverts, so the modulus must be prime; the edge
// modulus of the other kernel tests is not): runs of 0, 1 and many ops —
// around one and two eight-lane vectors, and a whole flush — each kind of
// op alone, and every kind mixed with edge-valued coordinates. The last
// mix repeats every 7 ops, and 7 is prime to 16, so each of the IFMA
// kernel's sixteen chains (lane j takes ops j, j + 16, …) meets a
// doubling, a negated doubling, a cancellation, a negated cancellation
// and an x_p = x_q op over any 112 ops.
func TestAddRunKernelsAgree(t *testing.T) {
	for _, k := range addRunKernels() {
		t.Logf("AddRun kernel %s", k.name)
	}
	rng := rand.New(rand.NewSource(3))
	for _, mod := range []*Modulus{m, fpM} {
		vals := kernelOperands(mod, rng, 29)
		for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 97, 512} {
			for kind := byte(0); kind < 6; kind++ {
				checkAddRun(t, mod, newAddRunCase(mod, vals, rng, n, []byte{kind}))
			}
			checkAddRun(t, mod, newAddRunCase(mod, vals, rng, n, []byte{0, 1, 0, 2, 3, 0, 4, 5, 0}))
		}
		for _, n := range []int{112, 3*112 + 5} {
			checkAddRun(t, mod, newAddRunCase(mod, vals, rng, n, []byte{1, 2, 3, 4, 5, 0, 0}))
		}
		// Only a few distinct coordinates, so x_p = x_q also happens by chance.
		checkAddRun(t, mod, newAddRunCase(mod, vals[:3], rng, 64, []byte{0}))
	}
}

// TestAddRunAllocatesNothing: no kernel allocates, so a flush costs the
// batch adder nothing beyond the scratch it keeps.
func TestAddRunAllocatesNothing(t *testing.T) {
	const n = 97
	rng := rand.New(rand.NewSource(7))
	c := newAddRunCase(fpM, kernelOperands(fpM, rng, 29), rng, n, []byte{0, 1, 3, 5})
	scratch := make([]Limbs, AddRunScratch(n))
	for _, k := range append(addRunKernels(), addRunKernel{"dispatch", (*Modulus).AddRun}) {
		ops, _ := c.ops()
		if a := testing.AllocsPerRun(10, func() { k.run(fpM, ops, scratch) }); a != 0 {
			t.Errorf("%s AddRun: %v allocations per run", k.name, a)
		}
	}
}

// TestAddRunChecksScratch: scratch shorter than AddRunScratch panics before
// any kernel runs.
func TestAddRunChecksScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ops, _ := newAddRunCase(m, kernelOperands(m, rng, 4), rng, 2, []byte{0}).ops()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	m.AddRun(ops, make([]Limbs, AddRunScratch(2)-1))
}

// FuzzAddRun runs checkAddRun on a fuzzed batch: a seed for the random
// coordinates, the op count and the op kinds (see newAddRunCase), for each
// modulus of TestAddRunKernelsAgree.
func FuzzAddRun(f *testing.F) {
	f.Add(int64(1), uint8(8), []byte{0})
	f.Add(int64(2), uint8(9), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(3), uint8(1), []byte{3})
	f.Fuzz(func(t *testing.T, seed int64, n uint8, kinds []byte) {
		if len(kinds) == 0 {
			kinds = []byte{0}
		}
		rng := rand.New(rand.NewSource(seed))
		for _, mod := range []*Modulus{m, fpM} {
			vals := kernelOperands(mod, rng, 4)
			checkAddRun(t, mod, newAddRunCase(mod, vals, rng, int(n%80), kinds))
		}
	})
}

// BenchmarkAddRun times one flush-sized run of 512 general additions
// through each kernel this CPU runs, by name (generic, adx, ifma); ns/add
// is the cost of one addition, its share of the inversion included.
func BenchmarkAddRun(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(5))
	c := newAddRunCase(fpM, kernelOperands(fpM, rng, 64), rng, n, []byte{0})
	scratch := make([]Limbs, AddRunScratch(n))
	for _, k := range addRunKernels() {
		b.Run(k.name, func(b *testing.B) {
			ops, _ := c.ops()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.run(fpM, ops, scratch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/add")
		})
	}
}
