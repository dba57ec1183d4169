package plonkish

import (
	"strings"
	"testing"

	"repro/internal/ff"
	"repro/internal/pcs"
)

// testCircuit builds a small circuit exercising every constraint type:
//   - a multiplication gate: sMul * (c - a*b) = 0
//   - a range lookup: on sLk rows, a must be in [0, 16)
//   - copy constraints between advice cells and to the instance column.
//
// Fixed columns: 0 = sMul, 1 = sLk, 2 = table T.
// Advice columns: 0 = a, 1 = b, 2 = c.
func testCircuit() *CS {
	cs := &CS{NumFixed: 3, NumAdvice: 3, NumInstance: 1}
	sMul := V(FixedCol(0))
	a, b, c := V(AdviceCol(0)), V(AdviceCol(1)), V(AdviceCol(2))
	cs.AddGate("mul", Mul(sMul, Sub(c, Mul(a, b))))
	cs.AddLookup(Lookup{
		Name:     "range16",
		Selector: V(FixedCol(1)),
		Inputs:   []Expr{a},
		Table:    []Col{FixedCol(2)},
		TableLen: 16,
	})
	// c@0 == a@1 (chained computation), c@1 == instance[0]@0.
	cs.Copy(Cell{AdviceCol(2), 0}, Cell{AdviceCol(0), 1})
	cs.Copy(Cell{AdviceCol(2), 1}, Cell{InstanceCol(0), 0})
	return cs
}

func testFixed(n int) [][]ff.Element {
	sMul := make([]ff.Element, n)
	sLk := make([]ff.Element, n)
	tbl := make([]ff.Element, n)
	sMul[0], sMul[1] = ff.One(), ff.One()
	sLk[2] = ff.One()
	for i := 0; i < 16; i++ {
		tbl[i] = ff.NewElement(uint64(i))
	}
	return [][]ff.Element{sMul, sLk, tbl}
}

// testWitness fills a=3,b=4,c=12 at row 0; a=12,b=2,c=24 at row 1; a=7 at
// the lookup row 2.
func testWitness(breakCopy, breakGate, breakLookup bool) Witness {
	return WitnessFunc(func(phase int, ch []ff.Element, as *Assignment) error {
		set := func(col, row int, v int64) { as.Set(AdviceCol(col), row, ff.NewInt64(v)) }
		set(0, 0, 3)
		set(1, 0, 4)
		set(2, 0, 12)
		set(0, 1, 12)
		set(1, 1, 2)
		set(2, 1, 24)
		set(0, 2, 7)
		if breakCopy {
			set(0, 1, 13)
			set(1, 1, 2)
			set(2, 1, 26)
		}
		if breakGate {
			set(2, 0, 13)
			set(0, 1, 13)
			set(2, 1, 26)
		}
		if breakLookup {
			set(0, 2, 99)
		}
		return nil
	})
}

func testInstance(v int64) [][]ff.Element {
	return [][]ff.Element{{ff.NewInt64(v)}}
}

func setup(t *testing.T, backend pcs.Backend) (*ProvingKey, *VerifyingKey) {
	t.Helper()
	cs := testCircuit()
	pk, vk, err := Setup(cs, 32, testFixed(32), backend)
	if err != nil {
		t.Fatal(err)
	}
	return pk, vk
}

func TestProveVerifyBothBackends(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			pk, vk := setup(t, backend)
			proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, testInstance(24), proof); err != nil {
				t.Fatal(err)
			}
			if proof.Size() <= 0 {
				t.Fatal("proof size must be positive")
			}
		})
	}
}

func TestCheckConstraintsOracle(t *testing.T) {
	cs := testCircuit()
	n := 32
	a := NewAssignment(cs, n)
	for i, col := range testFixed(n) {
		copy(a.Fixed[i], col)
	}
	a.Instance[0][0] = ff.NewInt64(24)
	if err := testWitness(false, false, false).Fill(0, nil, a); err != nil {
		t.Fatal(err)
	}
	if err := CheckConstraints(cs, a, nil); err != nil {
		t.Fatal(err)
	}
	// Break the gate.
	bad := NewAssignment(cs, n)
	for i, col := range testFixed(n) {
		copy(bad.Fixed[i], col)
	}
	bad.Instance[0][0] = ff.NewInt64(24)
	_ = testWitness(false, false, false).Fill(0, nil, bad)
	bad.Set(AdviceCol(2), 0, ff.NewInt64(13))
	err := CheckConstraints(cs, bad, nil)
	if err == nil || !strings.Contains(err.Error(), "gate") {
		t.Fatalf("expected gate violation, got %v", err)
	}
}

// TestCheckConstraintsSeesBlindingRows is the regression test for a mock
// prover that was laxer than the prover: a user gate is not multiplied by
// q_active, so one whose selector is set in a blinding row constrains the
// random values Prove puts there. Both paths must reject it, and the mock
// prover must leave the caller's grid as it found it.
func TestCheckConstraintsSeesBlindingRows(t *testing.T) {
	const n = 32
	cs := testCircuit()
	cs.NumFixed = 4
	cs.AddGate("blinding-row", Mul(V(FixedCol(3)), V(AdviceCol(1))))
	fixed := append(testFixed(n), make([]ff.Element, n))
	fixed[3][n-1] = ff.One()

	a := NewAssignment(cs, n)
	for i, col := range fixed {
		copy(a.Fixed[i], col)
	}
	a.Instance[0][0] = ff.NewInt64(24)
	if err := testWitness(false, false, false).Fill(0, nil, a); err != nil {
		t.Fatal(err)
	}
	before := append([]ff.Element(nil), a.Advice[1]...)
	err := CheckConstraints(cs, a, nil)
	if err == nil || !strings.Contains(err.Error(), `gate "blinding-row"`) || !strings.Contains(err.Error(), "row 31") {
		t.Fatalf("CheckConstraints: got %v, want the blinding-row gate violated at row 31", err)
	}
	for r := range before {
		if !a.Advice[1][r].Equal(&before[r]) {
			t.Fatalf("CheckConstraints changed the caller's advice at row %d", r)
		}
	}

	pk, _, err := Setup(cs, n, fixed, pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prove(pk, testInstance(24), testWitness(false, false, false)); err == nil {
		t.Fatal("prover accepted a gate that constrains the blinding rows")
	}
}

func TestProverRejectsBrokenGate(t *testing.T) {
	pk, _ := setup(t, pcs.KZG)
	// a=3,b=4,c=13 violates the mul gate; the prover must refuse to produce
	// a proof (its satisfaction check on H finds the row).
	if _, err := Prove(pk, testInstance(26), testWitness(false, true, false)); err == nil {
		t.Fatal("prover accepted a gate-violating witness")
	}
}

func TestProverRejectsBrokenCopy(t *testing.T) {
	pk, _ := setup(t, pcs.KZG)
	if _, err := Prove(pk, testInstance(26), testWitness(true, false, false)); err == nil {
		t.Fatal("prover accepted a copy-violating witness")
	}
}

func TestProverRejectsBrokenLookup(t *testing.T) {
	pk, _ := setup(t, pcs.KZG)
	_, err := Prove(pk, testInstance(24), testWitness(false, false, true))
	if err == nil || !strings.Contains(err.Error(), "lookup") {
		t.Fatalf("expected lookup failure, got %v", err)
	}
}

func TestVerifierRejectsWrongInstance(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		pk, vk := setup(t, backend)
		proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(vk, testInstance(25), proof); err == nil {
			t.Fatalf("%v: verifier accepted wrong instance", backend)
		}
	}
}

func TestVerifierRejectsTamperedEvals(t *testing.T) {
	pk, vk := setup(t, pcs.KZG)
	proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	one := ff.One()
	proof.Evals[0].Add(&proof.Evals[0], &one)
	if err := Verify(vk, testInstance(24), proof); err == nil {
		t.Fatal("verifier accepted tampered evaluation")
	}
}

func TestVerifierRejectsTamperedCommit(t *testing.T) {
	pk, vk := setup(t, pcs.KZG)
	proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	proof.AdviceCommits[0] = proof.AdviceCommits[1]
	if err := Verify(vk, testInstance(24), proof); err == nil {
		t.Fatal("verifier accepted tampered commitment")
	}
}

func TestVerifierRejectsShapeMismatch(t *testing.T) {
	pk, vk := setup(t, pcs.KZG)
	proof, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	proof.Evals = proof.Evals[:len(proof.Evals)-1]
	if err := Verify(vk, testInstance(24), proof); err == nil {
		t.Fatal("verifier accepted malformed proof")
	}
}

func TestProofsAreRandomized(t *testing.T) {
	// Zero-knowledge smoke test: two proofs of the same statement must
	// differ (blinding rows are random).
	pk, _ := setup(t, pcs.KZG)
	p1, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Prove(pk, testInstance(24), testWitness(false, false, false))
	if err != nil {
		t.Fatal(err)
	}
	if p1.AdviceCommits[0].Equal(&p2.AdviceCommits[0]) {
		t.Fatal("advice commitments identical across proofs: no blinding")
	}
}

func TestSetupValidation(t *testing.T) {
	cs := testCircuit()
	if _, _, err := Setup(cs, 31, testFixed(31), pcs.KZG); err == nil {
		t.Fatal("accepted non-power-of-two rows")
	}
	if _, _, err := Setup(cs, 32, testFixed(16), pcs.KZG); err == nil {
		t.Fatal("accepted wrong-length fixed columns")
	}
	// Table longer than usable rows.
	cs2 := testCircuit()
	cs2.Lookups[0].TableLen = 30
	if _, _, err := Setup(cs2, 32, testFixed(32), pcs.KZG); err == nil {
		t.Fatal("accepted oversized lookup table")
	}
	// Copy in the blinding region.
	cs3 := testCircuit()
	cs3.Copy(Cell{AdviceCol(0), 30}, Cell{AdviceCol(1), 0})
	if _, _, err := Setup(cs3, 32, testFixed(32), pcs.KZG); err == nil {
		t.Fatal("accepted copy constraint in blinding region")
	}
}

func TestCSValidate(t *testing.T) {
	cs := &CS{NumFixed: 1, NumAdvice: 1}
	cs.AddGate("bad", V(AdviceCol(5)))
	if err := cs.Validate(); err == nil {
		t.Fatal("accepted out-of-range column")
	}
	cs2 := &CS{NumFixed: 1, NumAdvice: 1, NumInstance: 1}
	cs2.AddGate("bad", VRot(InstanceCol(0), 1))
	if err := cs2.Validate(); err == nil {
		t.Fatal("accepted rotated instance query")
	}
}

func TestDegreeAndChunks(t *testing.T) {
	cs := testCircuit()
	// mul gate: sel*(c - a*b) has degree 3; lookup constraint degree 4.
	if d := cs.Degree(); d != 4 {
		t.Fatalf("degree = %d, want 4", d)
	}
	if c := cs.PermChunk(); c != 2 {
		t.Fatalf("perm chunk = %d, want 2", c)
	}
	// 3 advice + 1 instance = 4 perm columns -> 2 chunks.
	if nz := cs.numZ(); nz != 2 {
		t.Fatalf("perm chunks = %d, want 2", nz)
	}
	cs.MinDegree = 6
	if c := cs.PermChunk(); c != 4 {
		t.Fatalf("perm chunk with MinDegree=6 = %d, want 4", c)
	}
}

func TestMultiRowGate(t *testing.T) {
	// A two-row gate: sel * (c(next row) - a - b) = 0 exercising non-zero
	// rotations through the full prover.
	cs := &CS{NumFixed: 1, NumAdvice: 3, NumInstance: 1}
	sel := V(FixedCol(0))
	a, b := V(AdviceCol(0)), V(AdviceCol(1))
	cNext := VRot(AdviceCol(2), 1)
	cs.AddGate("add-multirow", Mul(sel, Sub(cNext, Sum(a, b))))
	cs.Copy(Cell{AdviceCol(2), 1}, Cell{InstanceCol(0), 0})

	n := 32
	fixed := [][]ff.Element{make([]ff.Element, n)}
	fixed[0][0] = ff.One()
	pk, vk, err := Setup(cs, n, fixed, pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	w := WitnessFunc(func(phase int, ch []ff.Element, as *Assignment) error {
		as.Set(AdviceCol(0), 0, ff.NewInt64(5))
		as.Set(AdviceCol(1), 0, ff.NewInt64(6))
		as.Set(AdviceCol(2), 1, ff.NewInt64(11))
		return nil
	})
	proof, err := Prove(pk, testInstance(11), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, testInstance(11), proof); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPhaseChallengeWitness(t *testing.T) {
	// Phase-1 advice depends on a squeezed challenge: column p1 must equal
	// r * a where r is the phase challenge (a toy Freivalds shape).
	cs := &CS{NumFixed: 1, NumAdvice: 2, NumInstance: 1,
		AdvicePhase: []int{0, 1}, NumChallenges: 1}
	sel := V(FixedCol(0))
	a, p1 := V(AdviceCol(0)), V(AdviceCol(1))
	r := ChallengeExpr{Index: 0}
	cs.AddGate("freivalds-toy", Mul(sel, Sub(p1, Mul(r, a))))
	cs.Copy(Cell{AdviceCol(0), 0}, Cell{InstanceCol(0), 0})

	n := 32
	fixed := [][]ff.Element{make([]ff.Element, n)}
	fixed[0][0] = ff.One()
	pk, vk, err := Setup(cs, n, fixed, pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	w := WitnessFunc(func(phase int, ch []ff.Element, as *Assignment) error {
		if phase == 0 {
			as.Set(AdviceCol(0), 0, ff.NewInt64(42))
			return nil
		}
		var v ff.Element
		av := ff.NewInt64(42)
		v.Mul(&ch[0], &av)
		as.Set(AdviceCol(1), 0, v)
		return nil
	})
	proof, err := Prove(pk, testInstance(42), w)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, testInstance(42), proof); err != nil {
		t.Fatal(err)
	}
}
