package limbs

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// runCase is one strided butterfly run: n pairs x[i·xs], y[i·xs] and
// twiddles w[i·ws], in slices as long as the run needs plus one element, so
// a kernel that strays past the run shows as a changed gap element.
type runCase struct {
	x, y, w   []Limbs
	n, xs, ws int
}

// newRunCase draws a run's operands from vals, cycling through them from
// start.
func newRunCase(vals []Limbs, start, n, xs, ws int) runCase {
	next := func() Limbs {
		v := vals[start%len(vals)]
		start++
		return v
	}
	fill := func(l int) []Limbs {
		s := make([]Limbs, l)
		for i := range s {
			s[i] = next()
		}
		return s
	}
	l := max(n-1, 0)*xs + 2
	return runCase{x: fill(l), y: fill(l), w: fill(max(n-1, 0)*ws + 2), n: n, xs: xs, ws: ws}
}

func (c runCase) clone() runCase {
	c.x = append([]Limbs(nil), c.x...)
	c.y = append([]Limbs(nil), c.y...)
	c.w = append([]Limbs(nil), c.w...)
	return c
}

// want computes the run with big.Int: x + w·b·2^-256 and x − w·b·2^-256 mod
// M at the run's indices, every other element unchanged.
func (c runCase) want(mod *Modulus, unit bool) (x, y []Limbs) {
	x, y = append([]Limbs(nil), c.x...), append([]Limbs(nil), c.y...)
	rInv := new(big.Int).Lsh(big.NewInt(1), 256)
	rInv.ModInverse(rInv, mod.Big)
	for i := 0; i < c.n; i++ {
		a, b := ToBig(&c.x[i*c.xs]), ToBig(&c.y[i*c.xs])
		t := b
		if !unit {
			t = new(big.Int).Mul(ToBig(&c.w[i*c.ws]), b)
			t.Mul(t, rInv).Mod(t, mod.Big)
		}
		x[i*c.xs] = mod.FromBig(new(big.Int).Add(a, t))
		y[i*c.xs] = mod.FromBig(new(big.Int).Sub(a, t))
	}
	return x, y
}

// checkButterflyRun holds ButterflyRun's generic loop and, where the CPU has it, its
// assembly run to big.Int on one case, and AddSubRun too.
func checkButterflyRun(t testing.TB, mod *Modulus, c runCase) {
	t.Helper()
	wantX, wantY := c.want(mod, false)
	kernels := map[string]func(x, y, w []Limbs, n, xs, ws int){"generic": mod.butterflyRunGeneric}
	if hasADX {
		kernels["adx"] = mod.ButterflyRun
	}
	for name, run := range kernels {
		got := c.clone()
		run(got.x, got.y, got.w, c.n, c.xs, c.ws)
		if !equalLimbs(got.x, wantX) || !equalLimbs(got.y, wantY) || !equalLimbs(got.w, c.w) {
			t.Fatalf("%s run of %d pairs, xs %d, ws %d: x %v y %v, want %v %v",
				name, c.n, c.xs, c.ws, got.x, got.y, wantX, wantY)
		}
	}
	wantX, wantY = c.want(mod, true)
	got := c.clone()
	mod.AddSubRun(got.x, got.y, c.n, c.xs)
	if !equalLimbs(got.x, wantX) || !equalLimbs(got.y, wantY) {
		t.Fatalf("AddSubRun of %d pairs, xs %d: x %v y %v, want %v %v", c.n, c.xs, got.x, got.y, wantX, wantY)
	}
}

func equalLimbs(a, b []Limbs) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestButterflyKernelsAgree holds the assembly butterfly run to the generic
// one and both to big.Int, on both BN254 moduli and the edge modulus, over
// unit and wider pair strides, constant, unit and wider twiddle strides and
// runs of 0, 1 and many pairs.
func TestButterflyKernelsAgree(t *testing.T) {
	if !hasADX {
		t.Logf("kernel %q: checking the generic run only", Kernel())
	}
	rng := rand.New(rand.NewSource(2))
	for _, mod := range []*Modulus{m, fpM, edgeM} {
		vals := kernelOperands(mod, rng, 29)
		start := 0
		for _, xs := range []int{1, 3} {
			for _, ws := range []int{0, 1, 2} {
				for _, n := range []int{0, 1, 2 * len(vals)} {
					checkButterflyRun(t, mod, newRunCase(vals, start, n, xs, ws))
					start += 7
				}
			}
		}
	}
}

// TestButterflyRunChecksBounds: a run that does not fit its slices, or has
// a negative count or a bad stride, panics before any kernel runs.
func TestButterflyRunChecksBounds(t *testing.T) {
	four := make([]Limbs, 4)
	for name, run := range map[string]func(){
		"x short":          func() { m.ButterflyRun(four[:2], four, four, 3, 1, 0) },
		"y short":          func() { m.ButterflyRun(four, four[:1], four, 2, 2, 0) },
		"w short":          func() { m.ButterflyRun(four, four, four[:2], 2, 1, 2) },
		"w empty":          func() { m.ButterflyRun(four, four, nil, 1, 1, 0) },
		"negative count":   func() { m.ButterflyRun(four, four, four, -1, 1, 0) },
		"zero pair stride": func() { m.ButterflyRun(four, four, four, 1, 0, 0) },
		"negative twiddle": func() { m.ButterflyRun(four, four, four, 1, 1, -1) },
		"huge stride":      func() { m.ButterflyRun(four, four, four, 3, math.MaxInt/2+1, 0) },
		"add-sub short":    func() { m.AddSubRun(four, four[:1], 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			run()
		}()
	}
	m.ButterflyRun(nil, nil, nil, 0, 1, 0) // an empty run needs no slices
}

// FuzzButterfly runs checkButterflyRun on a fuzzed run: operand seeds,
// strides and a count, for each modulus of TestButterflyKernelsAgree.
func FuzzButterfly(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), uint8(1))
	f.Add(int64(2), uint8(1), uint8(3), uint8(0))
	f.Add(int64(3), uint8(0), uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, n, xs, ws uint8) {
		rng := rand.New(rand.NewSource(seed))
		for _, mod := range []*Modulus{m, fpM, edgeM} {
			vals := kernelOperands(mod, rng, 4)
			checkButterflyRun(t, mod, newRunCase(vals, int(seed&0xff), int(n%64), int(xs%8)+1, int(ws%8)))
		}
	})
}

// BenchmarkButterflyRun times one run of 1024 pairs with a twiddle per pair,
// the shape of a late NTT stage, on the dispatching and the generic loop.
func BenchmarkButterflyRun(b *testing.B) {
	const n = 1024
	x, y, w := make([]Limbs, n), make([]Limbs, n), make([]Limbs, n)
	for i := range x {
		x[i], y[i], w[i] = toMont(randBig(int64(3*i))), toMont(randBig(int64(3*i+1))), toMont(randBig(int64(3*i+2)))
	}
	b.Run("dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ButterflyRun(x, y, w, n, 1, 1)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.butterflyRunGeneric(x, y, w, n, 1, 1)
		}
	})
}
