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

// checkAddRun runs the case through the generic run and, where the CPU has
// it, the dispatching (assembly) one, and holds both to big.Int.
func checkAddRun(t testing.TB, mod *Modulus, c addRunCase) {
	t.Helper()
	want := c.want(mod)
	n := len(c.p)
	ops, got := c.ops()
	scratch := make([]Limbs, 3*n)
	if n > 0 {
		mod.addRunGeneric(ops, scratch[:n], scratch[n:2*n], scratch[2*n:])
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("generic AddRun op %d of %d (neg %v): got %v, want %v", i, n, c.neg[i], got[i], want[i])
		}
	}
	ops, got = c.ops()
	mod.AddRun(ops, scratch)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s AddRun op %d of %d (neg %v): got %v, want %v", Kernel(), i, n, c.neg[i], got[i], want[i])
		}
	}
}

// TestAddRunKernelsAgree holds the assembly run to the generic one and both
// to big.Int on both BN254 moduli (the run inverts, so the modulus must be
// prime; the edge modulus of the other kernel tests is not): runs of 0, 1
// and many ops, each kind of op alone, and every kind mixed with edge-valued
// coordinates.
func TestAddRunKernelsAgree(t *testing.T) {
	if !hasADX {
		t.Logf("kernel %q: checking the generic run only", Kernel())
	}
	rng := rand.New(rand.NewSource(3))
	for _, mod := range []*Modulus{m, fpM} {
		vals := kernelOperands(mod, rng, 29)
		for _, n := range []int{0, 1, 2, 97} {
			for kind := byte(0); kind < 6; kind++ {
				checkAddRun(t, mod, newAddRunCase(mod, vals, rng, n, []byte{kind}))
			}
			checkAddRun(t, mod, newAddRunCase(mod, vals, rng, n, []byte{0, 1, 0, 2, 3, 0, 4, 5, 0}))
		}
		// Only a few distinct coordinates, so x_p = x_q also happens by chance.
		checkAddRun(t, mod, newAddRunCase(mod, vals[:3], rng, 64, []byte{0}))
	}
}

// TestAddRunChecksScratch: scratch shorter than three elements per op
// panics before any kernel runs.
func TestAddRunChecksScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ops, _ := newAddRunCase(m, kernelOperands(m, rng, 4), rng, 2, []byte{0}).ops()
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	m.AddRun(ops, make([]Limbs, 5))
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
// through the dispatching and the generic kernel; ns/add is the cost of
// one addition, its share of the inversion included.
func BenchmarkAddRun(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(5))
	c := newAddRunCase(fpM, kernelOperands(fpM, rng, 64), rng, n, []byte{0})
	scratch := make([]Limbs, 3*n)
	for _, k := range []struct {
		name string
		run  func(ops []AddOp)
	}{
		{"dispatch", func(ops []AddOp) { fpM.AddRun(ops, scratch) }},
		{"generic", func(ops []AddOp) { fpM.addRunGeneric(ops, scratch[:n], scratch[n:2*n], scratch[2*n:]) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			ops, _ := c.ops()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.run(ops)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/add")
		})
	}
}
