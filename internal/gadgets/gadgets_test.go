package gadgets

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

func testFP() fixedpoint.Params {
	return fixedpoint.Params{ScaleBits: 4, LookupBits: 8}
}

func testCfg() Config { return DefaultConfig(8, testFP()) }

// endToEnd finalizes the build, checks constraints with the mock prover,
// and runs a full prove/verify cycle.
func endToEnd(t *testing.T, b *Builder) {
	t.Helper()
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	// Mock-prover oracle first: pinpoints the violated constraint.
	art := checkRows(t, b)
	pk, vk, err := plonkish.Setup(art.CS, art.N, art.Fixed, pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonkish.Prove(pk, art.Instance, art.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonkish.Verify(vk, art.Instance, proof); err != nil {
		t.Fatal(err)
	}
}

// testChallenge stands in for the challenge the prover squeezes after
// phase 0.
var testChallenge = []ff.Element{ff.NewElement(7)}

// checkRows finalizes the build at its minimal grid and checks every gate,
// lookup and copy row by row with plonkish.CheckConstraints.
func checkRows(t *testing.T, b *Builder) *Artifact {
	t.Helper()
	art, err := b.Finalize(b.MinN())
	if err != nil {
		t.Fatal(err)
	}
	if err := plonkish.CheckConstraints(art.CS, assign(t, art), testChallenge); err != nil {
		t.Fatal(err)
	}
	return art
}

// assign fills both witness phases of art's grid, phase 1 with
// testChallenge.
func assign(t *testing.T, art *Artifact) *plonkish.Assignment {
	t.Helper()
	a := plonkish.NewAssignment(art.CS, art.N)
	for i := range art.Fixed {
		copy(a.Fixed[i], art.Fixed[i])
	}
	copy(a.Instance[0], art.Instance[0])
	for phase := 0; phase < 2; phase++ {
		if err := art.Witness.Fill(phase, testChallenge, a); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestArithmeticOpsEndToEnd(t *testing.T) {
	b := NewBuilder(testCfg())
	x := b.Witness(20) // 1.25 at scale 16
	y := b.Witness(-12)
	sum := b.Add(x, y)
	if sum.Int64() != 8 {
		t.Fatalf("add: %d", sum.Int64())
	}
	diff := b.Sub(x, y)
	if diff.Int64() != 32 {
		t.Fatalf("sub: %d", diff.Int64())
	}
	prod := b.Mul(x, y) // (20*-12)/16 = -15
	if prod.Int64() != -15 {
		t.Fatalf("mul: %d", prod.Int64())
	}
	sq := b.Square(x) // 400/16 = 25
	if sq.Int64() != 25 {
		t.Fatalf("square: %d", sq.Int64())
	}
	sd := b.SqDiffRaw(x, y) // 32^2 = 1024 (double scale)
	if sd.Int64() != 1024 {
		t.Fatalf("sqdiff: %d", sd.Int64())
	}
	sc := b.MulC(x, 3)
	if sc.Int64() != 60 {
		t.Fatalf("mulc: %d", sc.Int64())
	}
	b.MakePublic(sum)
	b.MakePublic(prod)
	endToEnd(t, b)
}

func TestSumAndDotVariants(t *testing.T) {
	for _, cfg := range []Config{
		testCfg(),
		func() Config { c := testCfg(); c.Dot = DotSum; return c }(),
		func() Config { c := testCfg(); c.UseConstDot = false; return c }(),
		func() Config { c := testCfg(); c.UseConstDot = false; c.Dot = DotSum; return c }(),
		func() Config { c := testCfg(); c.MultiAdd, c.MultiMax, c.MultiDot = true, true, true; return c }(),
	} {
		b := NewBuilder(cfg)
		var xs []*Value
		var consts []int64
		want := int64(0)
		for i := 0; i < 20; i++ {
			v := int64(i - 10)
			w := int64(2*i - 5)
			xs = append(xs, b.Witness(v))
			consts = append(consts, w)
			want += v * w
		}
		dot := b.DotRaw(xs, nil, consts, nil)
		if dot.Int64() != want {
			t.Fatalf("cfg %v/%v/multi=%v: dot = %d, want %d", cfg.Dot, cfg.UseConstDot, cfg.MultiDot, dot.Int64(), want)
		}
		// With init.
		init := b.Witness(7)
		dot2 := b.DotRaw(xs, nil, consts, init)
		if dot2.Int64() != want+7 {
			t.Fatalf("dot with init = %d, want %d", dot2.Int64(), want+7)
		}
		s := b.SumVec(xs)
		if s.Int64() != -10 {
			t.Fatalf("sum = %d, want -10", s.Int64())
		}
		b.MakePublic(dot)
		endToEnd(t, b)
	}
}

func TestDotWitnessWeights(t *testing.T) {
	b := NewBuilder(testCfg())
	xs := []*Value{b.Witness(3), b.Witness(-2), b.Witness(5)}
	ws := []*Value{b.Witness(4), b.Witness(4), b.Witness(-1)}
	dot := b.DotRaw(xs, ws, nil, nil)
	if dot.Int64() != 12-8-5 {
		t.Fatalf("dot = %d", dot.Int64())
	}
	b.MakePublic(dot)
	endToEnd(t, b)
}

func TestDivisionGadgets(t *testing.T) {
	b := NewBuilder(testCfg())
	fp := testFP()
	x := b.Witness(37)
	r := b.Rescale(x) // Round(37/16) = 2
	if r.Int64() != fixedpoint.DivRound(37, fp.SF()) {
		t.Fatalf("rescale: %d", r.Int64())
	}
	neg := b.Witness(-37)
	rn := b.Rescale(neg)
	if rn.Int64() != fixedpoint.DivRound(-37, fp.SF()) {
		t.Fatalf("rescale neg: %d (want %d)", rn.Int64(), fixedpoint.DivRound(-37, fp.SF()))
	}
	num, den := b.Witness(100), b.Witness(7)
	vd := b.VarDiv(num, den)
	if vd.Int64() != fixedpoint.DivRound(100, 7) {
		t.Fatalf("vardiv: %d", vd.Int64())
	}
	fd := b.DivFloor(num, den)
	if fd.Int64() != 14 {
		t.Fatalf("divfloor: %d", fd.Int64())
	}
	nfd := b.DivFloor(b.Witness(-100), den)
	if nfd.Int64() != -15 {
		t.Fatalf("divfloor neg: %d", nfd.Int64())
	}
	b.MakePublic(vd)
	endToEnd(t, b)
}

func TestMaxGadget(t *testing.T) {
	for _, multi := range []bool{false, true} {
		cfg := testCfg()
		cfg.MultiAdd, cfg.MultiMax, cfg.MultiDot = multi, multi, multi
		b := NewBuilder(cfg)
		m := b.Max(b.Witness(-5), b.Witness(3))
		if m.Int64() != 3 {
			t.Fatalf("max: %d", m.Int64())
		}
		vals := []*Value{b.Witness(1), b.Witness(9), b.Witness(-4), b.Witness(7), b.Witness(2)}
		mv := b.MaxVec(vals)
		if mv.Int64() != 9 {
			t.Fatalf("maxvec: %d", mv.Int64())
		}
		b.MakePublic(mv)
		endToEnd(t, b)
	}
}

func TestNonlinearities(t *testing.T) {
	b := NewBuilder(testCfg())
	fp := testFP()
	for _, nl := range []fixedpoint.Nonlinearity{
		fixedpoint.ReLU, fixedpoint.Sigmoid, fixedpoint.Tanh, fixedpoint.GELU, fixedpoint.Exp,
	} {
		for _, v := range []int64{-20, -1, 0, 5, 31} {
			got := b.Nonlinear(nl, b.Witness(v))
			want := fp.Fixed(nl, v)
			if got.Int64() != want {
				t.Fatalf("%s(%d) = %d, want %d", nl, v, got.Int64(), want)
			}
		}
	}
	endToEnd(t, b)
}

func TestReluDecompMatchesLookup(t *testing.T) {
	cfg := testCfg()
	cfg.NumCols = cfg.FP.LookupBits + 3 // room for one decomp slot
	cfg.ReLU = ReLUDecomp
	b := NewBuilder(cfg)
	for _, v := range []int64{-100, -1, 0, 1, 100} {
		got := b.ReLU(b.Witness(v))
		want := int64(0)
		if v > 0 {
			want = v
		}
		if got.Int64() != want {
			t.Fatalf("relu_decomp(%d) = %d, want %d", v, got.Int64(), want)
		}
	}
	endToEnd(t, b)
}

func TestReluDecompNeedsColumns(t *testing.T) {
	cfg := testCfg()
	cfg.ReLU = ReLUDecomp
	cfg.NumCols = 6 // < LookupBits+2
	b := NewBuilder(cfg)
	if b.Err() == nil {
		t.Fatal("expected config validation error")
	}
}

func TestRangeAssertAndViolation(t *testing.T) {
	b := NewBuilder(testCfg())
	b.RangeAssert(b.Witness(127))
	b.RangeAssert(b.Witness(-128))
	endToEnd(t, b)

	b2 := NewBuilder(testCfg())
	b2.RangeAssert(b2.Witness(128)) // out of [-128, 128)
	if b2.Err() == nil || !strings.Contains(b2.Err().Error(), "range") {
		t.Fatalf("expected range failure, got %v", b2.Err())
	}
}

func TestConstantsDeduplicated(t *testing.T) {
	b := NewBuilder(testCfg())
	c1, c2 := b.Constant(42), b.Constant(42)
	c3 := b.Constant(43)
	if c1.cell != c2.cell {
		t.Fatal("equal constants should share a cell")
	}
	if c3.cell == c1.cell {
		t.Fatal("distinct constants must not share a cell")
	}
	// Constants flow through gadgets and bind via copy constraints.
	s := b.Add(b.Witness(1), c1)
	if s.Int64() != 43 {
		t.Fatalf("add const: %d", s.Int64())
	}
	b.MakePublic(s)
	endToEnd(t, b)
}

func TestViaDotStrategy(t *testing.T) {
	cfg := testCfg()
	cfg.Arith = ArithViaDot
	b := NewBuilder(cfg)
	x, y := b.Witness(20), b.Witness(-4)
	if got := b.Add(x, y); got.Int64() != 16 {
		t.Fatalf("viadot add: %d", got.Int64())
	}
	if got := b.Sub(x, y); got.Int64() != 24 {
		t.Fatalf("viadot sub: %d", got.Int64())
	}
	if got := b.MulRaw(x, y); got.Int64() != -80 {
		t.Fatalf("viadot mul: %d", got.Int64())
	}
	if got := b.SquareRaw(y); got.Int64() != 16 {
		t.Fatalf("viadot square: %d", got.Int64())
	}
	endToEnd(t, b)
	// The via-dot implementation must consume more rows than dedicated
	// gates (the Table 11 ablation effect).
	bd := NewBuilder(testCfg())
	for i := 0; i < 30; i++ {
		bd.Add(bd.Witness(int64(i)), bd.Witness(1))
	}
	bv := NewBuilder(cfg)
	for i := 0; i < 30; i++ {
		bv.Add(bv.Witness(int64(i)), bv.Witness(1))
	}
	if bv.Rows() <= bd.Rows() {
		t.Fatalf("via-dot (%d rows) should use more rows than dedicated (%d)", bv.Rows(), bd.Rows())
	}
}

func TestDivRoundPropertyAgainstFloat(t *testing.T) {
	// Property: the gadget's rounded division matches Round(b/a) within
	// the tie-breaking convention for all small values.
	f := func(bv int16, av uint8) bool {
		a := int64(av%100) + 1
		bb := int64(bv)
		got := fixedpoint.DivRound(bb, a)
		// floor(b/a + 1/2)
		want := fixedpoint.FloorDiv(2*bb+a, 2*a)
		return got == want && (bb-got*a) < a+a && 2*bb+a-2*a*got >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakePublicBindsOutput(t *testing.T) {
	// Proving with a tampered public output must fail verification.
	b := NewBuilder(testCfg())
	out := b.Add(b.Witness(2), b.Witness(3))
	b.MakePublic(out)
	art, err := b.Finalize(b.MinN())
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := plonkish.Setup(art.CS, art.N, art.Fixed, pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonkish.Prove(pk, art.Instance, art.Witness)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]interface{}{}
	_ = bad
	wrong := art.Instance
	w0 := wrong[0][0]
	var one = w0
	one.SetUint64(9999)
	wrong[0][0] = one
	if err := plonkish.Verify(vk, wrong, proof); err == nil {
		t.Fatal("verifier accepted tampered public output")
	}
}

func TestStatsTracking(t *testing.T) {
	b := NewBuilder(testCfg())
	b.Add(b.Witness(1), b.Witness(2))
	b.Add(b.Witness(3), b.Witness(4))
	b.ReLU(b.Witness(5))
	st := b.Stats()
	if st.Ops[KindAdd] != 2 {
		t.Fatalf("add ops = %d", st.Ops[KindAdd])
	}
	if st.Ops[NLKind(fixedpoint.ReLU)] != 1 {
		t.Fatalf("relu ops = %d", st.Ops[NLKind(fixedpoint.ReLU)])
	}
	// Two adds share one row (8 cols / 3 = 2 slots per row).
	if st.RowsByKind[KindAdd] != 1 {
		t.Fatalf("add rows = %d", st.RowsByKind[KindAdd])
	}
}

func TestMinNAccountsForTable(t *testing.T) {
	b := NewBuilder(testCfg())
	b.ReLU(b.Witness(1))
	// Table is 2^8 = 256 rows; MinN must cover table + ZK rows.
	if b.MinN() < 256+plonkish.ZKRows {
		t.Fatalf("MinN %d does not cover table", b.MinN())
	}
	if b.MinN() != 512 {
		t.Fatalf("MinN = %d, want 512", b.MinN())
	}
}
