package audit

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/ff"
	"repro/internal/plonkish"
)

// Planted-bug suite: each test hand-builds a small circuit with exactly one
// defect class and asserts the auditor reports exactly that finding. The
// grids use N=16, so the usable region is [0, 11).

const (
	pN = 16
	pU = pN - plonkish.ZKRows
)

func zeros(n int) []ff.Element { return make([]ff.Element, n) }

func grid(cols int) [][]ff.Element {
	g := make([][]ff.Element, cols)
	for i := range g {
		g[i] = zeros(pN)
	}
	return g
}

func mustAnalyze(t *testing.T, c Circuit) *Report {
	t.Helper()
	if c.N == 0 {
		c.N = pN
	}
	rep, err := Analyze(c)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep
}

// errorCodes returns the codes of the error-severity findings, in order.
func errorCodes(rep *Report) []Code {
	var out []Code
	for _, f := range rep.Findings {
		if f.Severity == SeverityError {
			out = append(out, f.Code)
		}
	}
	return out
}

// wantOneError asserts the report has exactly one error finding with the
// given code and returns it.
func wantOneError(t *testing.T, rep *Report, code Code) Finding {
	t.Helper()
	errs := errorCodes(rep)
	if len(errs) != 1 || errs[0] != code {
		t.Fatalf("want exactly one %s error, got %v\nreport: %+v", code, errs, rep.Findings)
	}
	for _, f := range rep.Findings {
		if f.Code == code {
			return f
		}
	}
	panic("unreachable")
}

// selGate builds the standard planted-test circuit: one selector fixed
// column, one advice column, and the gate sel * advice (forcing advice to 0
// on selected rows).
func selGate() *plonkish.CS {
	cs := &plonkish.CS{NumFixed: 1, NumAdvice: 1}
	cs.AddGate("zero", plonkish.Mul(
		plonkish.V(plonkish.FixedCol(0)),
		plonkish.V(plonkish.AdviceCol(0)),
	))
	return cs
}

func TestPlantedUnconstrainedCell(t *testing.T) {
	cs := selGate()
	fixed := grid(1)
	fixed[0][0] = ff.NewInt64(1) // gate active on row 0 only
	advice := grid(1)
	advice[0][2] = ff.NewInt64(7) // assigned, but no constraint reaches row 2

	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: fixed, Advice: advice})
	f := wantOneError(t, rep, CodeUnconstrainedCell)
	if f.Col != "advice[0]" || f.Row != 2 {
		t.Fatalf("finding at %s@%d, want advice[0]@2", f.Col, f.Row)
	}
	if rep.CellsScanned != 1 {
		t.Fatalf("CellsScanned = %d, want 1 (only the nonzero cell)", rep.CellsScanned)
	}
}

func TestPlantedUnconstrainedCopyGroup(t *testing.T) {
	// Two cells copied to each other but anchored by nothing: the whole
	// group is free, reported once.
	cs := selGate()
	cs.Copy(plonkish.Cell{Col: plonkish.AdviceCol(0), Row: 2},
		plonkish.Cell{Col: plonkish.AdviceCol(0), Row: 3})
	fixed := grid(1)
	fixed[0][0] = ff.NewInt64(1)
	advice := grid(1)
	advice[0][2] = ff.NewInt64(7)
	advice[0][3] = ff.NewInt64(7)

	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: fixed, Advice: advice})
	f := wantOneError(t, rep, CodeUnconstrainedCell)
	if !strings.Contains(f.Message, "copy group") {
		t.Fatalf("floating group should be reported as a group finding: %q", f.Message)
	}
}

func TestPlantedDeadSelector(t *testing.T) {
	cs := selGate()
	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: grid(1), Advice: grid(1)})
	f := wantOneError(t, rep, CodeDeadGate)
	if f.Name != "zero" {
		t.Fatalf("dead gate named %q, want \"zero\"", f.Name)
	}

	// Without fixed values, selector activity is unknown — no dead-gate
	// claim may be made.
	rep = mustAnalyze(t, Circuit{CS: cs})
	if len(errorCodes(rep)) != 0 {
		t.Fatalf("no fixed values: want no errors, got %v", errorCodes(rep))
	}
	if rep.FixedAudited {
		t.Fatal("FixedAudited must be false without fixed columns")
	}
}

func TestPlantedDeadLookupSelector(t *testing.T) {
	cs := &plonkish.CS{NumFixed: 2, NumAdvice: 1}
	cs.AddLookup(plonkish.Lookup{
		Name:     "range",
		Selector: plonkish.V(plonkish.FixedCol(1)), // never set
		Inputs:   []plonkish.Expr{plonkish.V(plonkish.AdviceCol(0))},
		Table:    []plonkish.Col{plonkish.FixedCol(0)},
		TableLen: 4,
	})
	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: grid(2), Advice: grid(1)})
	f := wantOneError(t, rep, CodeDeadLookup)
	if f.Name != "range" {
		t.Fatalf("dead lookup named %q, want \"range\"", f.Name)
	}
}

func TestPlantedOrphanCopy(t *testing.T) {
	cs := &plonkish.CS{NumAdvice: 1}
	cell := plonkish.Cell{Col: plonkish.AdviceCol(0), Row: 4}
	cs.Copy(cell, cell) // self-copy: binds nothing
	rep := mustAnalyze(t, Circuit{CS: cs, Advice: grid(1)})
	f := wantOneError(t, rep, CodeOrphanCopy)
	if f.Col != "advice[0]" || f.Row != 4 {
		t.Fatalf("finding at %s@%d, want advice[0]@4", f.Col, f.Row)
	}
}

func TestPlantedDuplicateCopyWarns(t *testing.T) {
	cs := selGate()
	a := plonkish.Cell{Col: plonkish.AdviceCol(0), Row: 0}
	b := plonkish.Cell{Col: plonkish.AdviceCol(0), Row: 1}
	cs.Copy(a, b)
	cs.Copy(b, a) // same pair, reversed
	fixed := grid(1)
	fixed[0][0] = ff.NewInt64(1)
	fixed[0][1] = ff.NewInt64(1)
	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: fixed, Advice: grid(1)})
	if len(errorCodes(rep)) != 0 {
		t.Fatalf("duplicate copy is a warning, got errors %v", errorCodes(rep))
	}
	if rep.Warnings() == 0 {
		t.Fatal("want a duplicate-copy warning")
	}
}

func TestPlantedCopyOutOfDomain(t *testing.T) {
	cs := &plonkish.CS{NumAdvice: 2}
	cs.Copy(plonkish.Cell{Col: plonkish.AdviceCol(0), Row: pU}, // first blinding row
		plonkish.Cell{Col: plonkish.AdviceCol(1), Row: 0})
	rep := mustAnalyze(t, Circuit{CS: cs, Advice: grid(2)})
	f := wantOneError(t, rep, CodeCopyOutOfDomain)
	if f.Row != pU {
		t.Fatalf("finding at row %d, want %d", f.Row, pU)
	}
}

func TestPlantedLookupRangeGap(t *testing.T) {
	// Table column fixed[0] holds [0,8); the input expression fixed[1]
	// takes value 9 on row 2 — statically unsatisfiable at prove time.
	cs := &plonkish.CS{NumFixed: 2}
	cs.AddLookup(plonkish.Lookup{
		Name:     "range8",
		Selector: plonkish.CI(1),
		Inputs:   []plonkish.Expr{plonkish.V(plonkish.FixedCol(1))},
		Table:    []plonkish.Col{plonkish.FixedCol(0)},
		TableLen: 8,
	})
	fixed := grid(2)
	for i := 0; i < 8; i++ {
		fixed[0][i] = ff.NewInt64(int64(i))
	}
	for r := 0; r < pN; r++ {
		fixed[1][r] = ff.NewInt64(3)
	}
	fixed[1][2] = ff.NewInt64(9)

	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: fixed})
	f := wantOneError(t, rep, CodeLookupGap)
	if f.Row != 2 {
		t.Fatalf("gap first seen at row %d, want 2", f.Row)
	}
	if !strings.Contains(f.Message, "value 9") || !strings.Contains(f.Message, "[0, 7]") {
		t.Fatalf("message should pin the value and table range: %q", f.Message)
	}

	// Repairing the out-of-range row clears the finding.
	fixed[1][2] = ff.NewInt64(3)
	rep = mustAnalyze(t, Circuit{CS: cs, Fixed: fixed})
	if len(errorCodes(rep)) != 0 {
		t.Fatalf("repaired circuit: want no errors, got %v", errorCodes(rep))
	}
}

func TestPlantedLookupTableOverflow(t *testing.T) {
	cs := &plonkish.CS{NumFixed: 1, NumAdvice: 1}
	cs.AddLookup(plonkish.Lookup{
		Name:     "big",
		Selector: plonkish.CI(1),
		Inputs:   []plonkish.Expr{plonkish.V(plonkish.AdviceCol(0))},
		Table:    []plonkish.Col{plonkish.FixedCol(0)},
		TableLen: pU + 1, // one row past the usable region
	})
	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: grid(1), Advice: grid(1)})
	wantOneError(t, rep, CodeLookupTableOverflow)
}

func TestPlantedDegreeOverflow(t *testing.T) {
	a := plonkish.V(plonkish.AdviceCol(0))
	cs := &plonkish.CS{NumAdvice: 1}
	cs.AddGate("quad", plonkish.Mul(a, a, a, a)) // degree 4

	// Against the true bound (cs.Degree() >= 4) the circuit is fine.
	rep := mustAnalyze(t, Circuit{CS: cs})
	if len(errorCodes(rep)) != 0 {
		t.Fatalf("true bound: want no errors, got %v", errorCodes(rep))
	}
	if rep.MaxConstraintDegree != 4 {
		t.Fatalf("MaxConstraintDegree = %d, want 4", rep.MaxConstraintDegree)
	}

	// A proving key carrying d_max=3 would size a quotient domain the
	// degree-4 gate overflows.
	rep = mustAnalyze(t, Circuit{CS: cs, DMax: 3})
	f := wantOneError(t, rep, CodeDegreeOverflow)
	if f.Name != "quad" {
		t.Fatalf("overflow names %q, want \"quad\"", f.Name)
	}

	// An extended domain with fewer parts than the d_max − 1 = 3 quotient
	// pieces is also an overflow, even when d_max itself is large enough:
	// one part (ExtN = N) or two (ExtN = 2N).
	for _, ext := range []int{pN, 2 * pN} {
		rep = mustAnalyze(t, Circuit{CS: cs, DMax: 4, ExtN: ext})
		wantOneError(t, rep, CodeDegreeOverflow)
	}
	// Three parts' worth is what the prover needs; the keygen size has four.
	for _, ext := range []int{4 * pN, plonkish.ExtDomainSize(pN, 4)} {
		if rep = mustAnalyze(t, Circuit{CS: cs, DMax: 4, ExtN: ext}); len(errorCodes(rep)) != 0 {
			t.Fatalf("ExtN %d: want no errors, got %v", ext, errorCodes(rep))
		}
	}
}

// TestPlantedBlindingRows opens one advice column at more rotations than
// its ZKRows blinding rows can hide: four distinct rotations need five
// blinding rows and pass, five need six and fail, naming the column.
func TestPlantedBlindingRows(t *testing.T) {
	build := func(rots int) *plonkish.CS {
		cs := &plonkish.CS{NumFixed: 1, NumAdvice: 2}
		terms := []plonkish.Expr{}
		for r := 0; r < rots; r++ {
			terms = append(terms, plonkish.VRot(plonkish.AdviceCol(1), r))
		}
		cs.AddGate("window", plonkish.Mul(plonkish.V(plonkish.FixedCol(0)),
			plonkish.Sub(plonkish.V(plonkish.AdviceCol(0)), plonkish.Sum(terms...))))
		return cs
	}
	if rep := mustAnalyze(t, Circuit{CS: build(plonkish.ZKRows - 1)}); len(errorCodes(rep)) != 0 {
		t.Fatalf("%d rotations: want no errors, got %v", plonkish.ZKRows-1, errorCodes(rep))
	}
	f := wantOneError(t, mustAnalyze(t, Circuit{CS: build(plonkish.ZKRows)}), CodeBlindingRows)
	if f.Col != "advice[1]" {
		t.Fatalf("finding names %q, want advice[1]", f.Col)
	}
}

func TestPlantedUnboundPublicInput(t *testing.T) {
	cs := selGate()
	cs.NumInstance = 1
	fixed := grid(1)
	fixed[0][0] = ff.NewInt64(1)
	inst := grid(1)
	inst[0][0] = ff.NewInt64(42) // claimed output, copied nowhere

	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: fixed, Advice: grid(1), Instance: inst})
	f := wantOneError(t, rep, CodeUnboundPublic)
	if f.Col != "instance[0]" || f.Row != 0 {
		t.Fatalf("finding at %s@%d, want instance[0]@0", f.Col, f.Row)
	}

	// Binding it into a copy group anchored by the gate clears the error.
	cs.Copy(plonkish.Cell{Col: plonkish.InstanceCol(0), Row: 0},
		plonkish.Cell{Col: plonkish.AdviceCol(0), Row: 0})
	rep = mustAnalyze(t, Circuit{CS: cs, Fixed: fixed, Advice: grid(1), Instance: inst})
	if len(errorCodes(rep)) != 0 {
		t.Fatalf("copy-bound public input: want no errors, got %v", errorCodes(rep))
	}
}

func TestPlantedDeadColumnWarns(t *testing.T) {
	cs := selGate()
	cs.NumAdvice = 2 // advice[1] referenced by nothing
	fixed := grid(1)
	fixed[0][0] = ff.NewInt64(1)
	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: fixed, Advice: grid(2)})
	if len(errorCodes(rep)) != 0 {
		t.Fatalf("dead column must not be an error, got %v", errorCodes(rep))
	}
	found := false
	for _, f := range rep.Findings {
		if f.Code == CodeDeadColumn && f.Col == "advice[1]" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a dead-column warning for advice[1], got %+v", rep.Findings)
	}
}

func TestPlantedCleanCircuit(t *testing.T) {
	// A fully wired circuit: sel * (a - 42) pins advice[0]@0, the public
	// output is copy-bound to it. Zero findings of any severity.
	cs := &plonkish.CS{NumFixed: 1, NumAdvice: 1, NumInstance: 1}
	cs.AddGate("pin", plonkish.Mul(
		plonkish.V(plonkish.FixedCol(0)),
		plonkish.Sub(plonkish.V(plonkish.AdviceCol(0)), plonkish.CI(42)),
	))
	cs.Copy(plonkish.Cell{Col: plonkish.InstanceCol(0), Row: 0},
		plonkish.Cell{Col: plonkish.AdviceCol(0), Row: 0})
	fixed := grid(1)
	fixed[0][0] = ff.NewInt64(1)
	advice := grid(1)
	advice[0][0] = ff.NewInt64(42)
	inst := grid(1)
	inst[0][0] = ff.NewInt64(42)

	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: fixed, Advice: advice, Instance: inst})
	if !rep.Clean() || rep.Warnings() != 0 {
		t.Fatalf("want a spotless report, got %+v", rep.Findings)
	}
}

func TestAnalyzeRejectsUnanalyzableInput(t *testing.T) {
	if _, err := Analyze(Circuit{}); err == nil {
		t.Fatal("nil CS must be an error")
	}
	if _, err := Analyze(Circuit{CS: &plonkish.CS{}, N: 12}); err == nil {
		t.Fatal("non-power-of-two N must be an error")
	}
}

func TestAnalyzeInvalidCS(t *testing.T) {
	cs := &plonkish.CS{NumAdvice: 1}
	cs.AddGate("oob", plonkish.V(plonkish.AdviceCol(5))) // column out of range
	rep := mustAnalyze(t, Circuit{CS: cs})
	wantOneError(t, rep, CodeInvalidCS)
}

func TestFindingCapTruncates(t *testing.T) {
	// One dead selector per gate, far past the per-code cap: the report
	// stays bounded but the error count does not lie.
	cs := &plonkish.CS{NumFixed: 1, NumAdvice: 1}
	for i := 0; i < maxFindingsPerCode+10; i++ {
		cs.AddGate("dead", plonkish.Mul(
			plonkish.V(plonkish.FixedCol(0)),
			plonkish.V(plonkish.AdviceCol(0)),
		))
	}
	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: grid(1)})
	if got := len(rep.Findings); got != maxFindingsPerCode {
		t.Fatalf("recorded %d findings, want cap %d", got, maxFindingsPerCode)
	}
	if rep.Errors() != maxFindingsPerCode+10 {
		t.Fatalf("Errors() = %d, want %d (truncated included)", rep.Errors(), maxFindingsPerCode+10)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	cs := selGate()
	rep := mustAnalyze(t, Circuit{CS: cs, Fixed: grid(1), Advice: grid(1), Model: "planted", Backend: "kzg"})
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Model != "planted" || back.Backend != "kzg" || len(back.Findings) != len(rep.Findings) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if s := rep.Summary(); !strings.Contains(s, "planted/kzg") {
		t.Fatalf("summary should name the model/backend: %q", s)
	}
}
