package limbs

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

const (
	testModDec = "21888242871839275222246405745257275088548364400416034343698204186575808495617" // BN254 r
	fpModDec   = "21888242871839275222246405745257275088696311157297823662689037894645226208583" // BN254 p
)

var (
	m   = NewModulus(testModDec)
	fpM = NewModulus(fpModDec)
	// edgeM is the largest odd modulus NewModulus accepts: top limb
	// 2^63 - 2, every other bit set. It sits on the no-carry kernel's bound.
	edgeM = NewModulus(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1<<63-1), 192), big.NewInt(1)).String())
)

// toMont converts a big.Int into Montgomery form limbs.
func toMont(v *big.Int) Limbs {
	l := m.FromBig(v)
	m.MontMul(&l, &l, &m.R2)
	return l
}

// fromMont converts Montgomery limbs back to a big.Int.
func fromMont(l Limbs) *big.Int {
	one := Limbs{1}
	m.MontMul(&l, &l, &one)
	return ToBig(&l)
}

func randBig(seed int64) *big.Int {
	v := new(big.Int).SetInt64(seed)
	v.Mul(v, v)
	v.Mul(v, new(big.Int).SetUint64(0x9e3779b97f4a7c15))
	v.Mod(v, m.Big)
	if v.Sign() < 0 {
		v.Add(v, m.Big)
	}
	return v
}

func TestMontMulMatchesBigInt(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := randBig(a), randBig(b)
		xl, yl := toMont(x), toMont(y)
		var z Limbs
		m.MontMul(&z, &xl, &yl)
		want := new(big.Int).Mul(x, y)
		want.Mod(want, m.Big)
		return fromMont(z).Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubMatchBigInt(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := randBig(a), randBig(b)
		xl, yl := m.FromBig(x), m.FromBig(y)
		var s, d Limbs
		m.Add(&s, &xl, &yl)
		m.Sub(&d, &xl, &yl)
		wantS := new(big.Int).Add(x, y)
		wantS.Mod(wantS, m.Big)
		wantD := new(big.Int).Sub(x, y)
		wantD.Mod(wantD, m.Big)
		if wantD.Sign() < 0 {
			wantD.Add(wantD, m.Big)
		}
		return ToBig(&s).Cmp(wantS) == 0 && ToBig(&d).Cmp(wantD) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegIsAdditiveInverse(t *testing.T) {
	x := m.FromBig(randBig(77))
	var n, s Limbs
	m.Neg(&n, &x)
	m.Add(&s, &x, &n)
	if !IsZero(&s) {
		t.Fatal("x + (-x) != 0")
	}
	zero := Limbs{}
	m.Neg(&n, &zero)
	if !IsZero(&n) {
		t.Fatal("-0 != 0")
	}
}

func TestEdgeCases(t *testing.T) {
	// Multiplication with max values (m-1)^2 exercises all carries.
	mm1 := new(big.Int).Sub(m.Big, big.NewInt(1))
	xl := toMont(mm1)
	var z Limbs
	m.MontMul(&z, &xl, &xl)
	want := new(big.Int).Mul(mm1, mm1)
	want.Mod(want, m.Big)
	if fromMont(z).Cmp(want) != 0 {
		t.Fatal("(m-1)^2 wrong")
	}
}

func TestInverse(t *testing.T) {
	x := toMont(randBig(123))
	var inv, p Limbs
	m.Inverse(&inv, &x)
	m.MontMul(&p, &x, &inv)
	if !Equal(&p, &m.R) { // Montgomery one
		t.Fatal("x * x^-1 != 1")
	}
}

// TestInverseMatchesFermat cross-checks the binary-xgcd Inverse against the
// Fermat exponentiation it replaced, including 1, m-1, and small values
// whose raw limb forms exercise the even/odd shift branches.
func TestInverseMatchesFermat(t *testing.T) {
	e := new(big.Int).Sub(m.Big, big.NewInt(2))
	check := func(v *big.Int) {
		x := toMont(v)
		var got, want Limbs
		m.Inverse(&got, &x)
		m.Exp(&want, &x, e)
		if !Equal(&got, &want) {
			t.Fatalf("inverse mismatch for %v", v)
		}
	}
	check(big.NewInt(1))
	check(big.NewInt(2))
	check(new(big.Int).Sub(m.Big, big.NewInt(1)))
	for seed := int64(1); seed < 50; seed++ {
		check(randBig(seed))
	}
}

func TestNewModulusValidation(t *testing.T) {
	for _, dec := range []string{
		"16", // even
		"notanumber",
		"57896044618658097711785492504343953926634992332820282019728792003956564819968", // 2^255
		// Top limb 2^63 - 1: one past the no-carry kernel's bound.
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1<<63-1), 192), big.NewInt(1)).String(),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewModulus(%q) should panic", dec)
				}
			}()
			NewModulus(dec)
		}()
	}
}

func TestBigRoundTrip(t *testing.T) {
	f := func(a int64) bool {
		x := randBig(a)
		l := m.FromBig(x)
		return ToBig(&l).Cmp(x) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestModulusLimbsMatchBig pins the limb packing of both BN254 moduli to
// their big.Int values. On 32-bit platforms big.Word is 32 bits, and a
// packing that copied words into limbs built a 128-bit modulus.
func TestModulusLimbsMatchBig(t *testing.T) {
	for _, mod := range []*Modulus{m, fpM} {
		if got := ToBig(&mod.M); got.Cmp(mod.Big) != 0 {
			t.Fatalf("limbs of %v read back as %v", mod.Big, got)
		}
		v := new(big.Int).Sub(mod.Big, big.NewInt(2))
		if l := mod.FromBig(v); ToBig(&l).Cmp(v) != 0 {
			t.Fatalf("FromBig(%v) round-trips to %v", v, ToBig(&l))
		}
		r := new(big.Int).Lsh(big.NewInt(1), 256)
		if ToBig(&mod.R).Cmp(r.Mod(r, mod.Big)) != 0 {
			t.Fatalf("R of %v is not 2^256 mod M", mod.Big)
		}
	}
}

// kernelOperands returns values below mod.M that stress the carry chains:
// 0, 1, R, M-1, M-2, all-ones limb patterns reduced mod M, and random values.
func kernelOperands(mod *Modulus, rng *rand.Rand, random int) []Limbs {
	const ones = ^uint64(0)
	ops := []Limbs{{}, {1}, mod.R}
	for _, d := range []int64{1, 2} {
		ops = append(ops, mod.FromBig(new(big.Int).Sub(mod.Big, big.NewInt(d))))
	}
	for _, p := range []Limbs{{ones}, {ones, ones}, {ones, ones, ones}, {ones, ones, ones, ones}, {0, ones, 0, ones}, {ones, 0, ones, 0}} {
		ops = append(ops, mod.FromBig(ToBig(&p)))
	}
	for i := 0; i < random; i++ {
		p := Limbs{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		ops = append(ops, mod.FromBig(ToBig(&p)))
	}
	return ops
}

// checkKernels compares the generic Montgomery multiplication with big.Int
// and, where the CPU has it, the ADX kernel with the generic one, including
// z aliasing x and y; then Add and Sub with big.Int. x and y are below M.
func checkKernels(t testing.TB, mod *Modulus, x, y Limbs) {
	t.Helper()
	bx, by := ToBig(&x), ToBig(&y)
	rInv := new(big.Int).Lsh(big.NewInt(1), 256)
	rInv.ModInverse(rInv, mod.Big)
	want := new(big.Int).Mul(bx, by)
	want.Mul(want, rInv).Mod(want, mod.Big)

	var gen Limbs
	mod.montMulGeneric(&gen, &x, &y)
	if ToBig(&gen).Cmp(want) != 0 {
		t.Fatalf("generic MontMul(%s, %s) = %s, want %v", String(&x), String(&y), String(&gen), want)
	}
	if hasADX {
		var adx Limbs
		montMulADX(&adx, &x, &y, &mod.M, mod.Inv)
		if adx != gen {
			t.Fatalf("ADX MontMul(%s, %s) = %s, generic %s", String(&x), String(&y), String(&adx), String(&gen))
		}
		a, g := x, x
		montMulADX(&a, &a, &a, &mod.M, mod.Inv)
		mod.montMulGeneric(&g, &g, &g)
		if a != g {
			t.Fatalf("aliased ADX square of %s = %s, generic %s", String(&x), String(&a), String(&g))
		}
	}

	var s, d Limbs
	mod.Add(&s, &x, &y)
	mod.Sub(&d, &x, &y)
	wantS := new(big.Int).Add(bx, by)
	wantD := new(big.Int).Sub(bx, by)
	if ToBig(&s).Cmp(wantS.Mod(wantS, mod.Big)) != 0 || ToBig(&d).Cmp(wantD.Mod(wantD, mod.Big)) != 0 {
		t.Fatalf("Add/Sub(%s, %s) = %s / %s, want %v / %v", String(&x), String(&y), String(&s), String(&d), wantS, wantD)
	}
}

// TestMontMulKernelsAgree holds the ADX kernel to the generic one and both
// to big.Int, on both BN254 moduli and on the largest modulus the no-carry
// bound admits, over edge and random operands.
func TestMontMulKernelsAgree(t *testing.T) {
	if !hasADX {
		t.Logf("kernel %q: this CPU or platform has no ADX kernel, checking the generic kernel and Add/Sub only", Kernel())
	}
	rng := rand.New(rand.NewSource(1))
	for _, mod := range []*Modulus{m, fpM, edgeM} {
		ops := kernelOperands(mod, rng, 40)
		for _, x := range ops {
			for _, y := range ops {
				checkKernels(t, mod, x, y)
			}
		}
	}
}

// FuzzMontMul runs checkKernels on fuzzed operands, reduced mod M, for
// each modulus of TestMontMulKernelsAgree.
func FuzzMontMul(f *testing.F) {
	const ones = ^uint64(0)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(1), uint64(0), uint64(0), uint64(0))
	f.Add(ones, ones, ones, ones, ones, ones, ones, ones)
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), ones, uint64(0), ones, uint64(0))
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, y0, y1, y2, y3 uint64) {
		x, y := Limbs{x0, x1, x2, x3}, Limbs{y0, y1, y2, y3}
		for _, mod := range []*Modulus{m, fpM, edgeM} {
			checkKernels(t, mod, mod.FromBig(ToBig(&x)), mod.FromBig(ToBig(&y)))
		}
	})
}

var sinkLimbs Limbs

func BenchmarkMontMul(b *testing.B) {
	x, y := toMont(randBig(3)), toMont(randBig(5))
	b.Run("dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.MontMul(&x, &x, &y)
		}
		sinkLimbs = x
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.montMulGeneric(&x, &x, &y)
		}
		sinkLimbs = x
	})
}

// BenchmarkAddSub alternates an Add and a Sub whose reduction is needed
// about half the time, as in the MSM's bucket additions.
func BenchmarkAddSub(b *testing.B) {
	x, y := m.FromBig(randBig(3)), m.FromBig(randBig(5))
	for i := 0; i < b.N; i++ {
		m.Add(&x, &x, &y)
		m.Sub(&y, &x, &y)
	}
	sinkLimbs = x
}
