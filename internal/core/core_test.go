package core

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/pcs"
)

var calib = costmodel.Calibrate(8, 10) // small, fast, shared across tests

func testOpts(backend pcs.Backend) Options {
	opt := DefaultOptions(backend, fixedpoint.Params{ScaleBits: 6, LookupBits: 10})
	opt.MinCols = 6
	opt.MaxCols = 24
	opt.Calibration = calib
	return opt
}

func TestOptimizeMNIST(t *testing.T) {
	spec, _ := model.Get("mnist")
	g := spec.Build()
	plan, cands, stats, err := Optimize(g, spec.Input(1), testOpts(pcs.KZG))
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || stats.Evaluated == 0 {
		t.Fatal("no candidates evaluated")
	}
	if plan.N&(plan.N-1) != 0 {
		t.Fatalf("plan rows %d not a power of two", plan.N)
	}
	// The chosen plan must be the cheapest candidate.
	for _, c := range cands {
		if c.Cost < plan.Cost {
			t.Fatalf("optimizer missed a cheaper candidate: %.4f < %.4f", c.Cost, plan.Cost)
		}
	}
	t.Logf("mnist plan: %d cols, N=2^%d, dot=%s constdot=%v, est %.2fs, %d B",
		plan.Config.NumCols, plan.K, plan.Config.Dot, plan.Config.UseConstDot, plan.Cost, plan.Size)
}

func TestOptimizePruningReducesWork(t *testing.T) {
	spec, _ := model.Get("dlrm-micro")
	g := spec.Build()
	in := spec.Input(1)
	optP := testOpts(pcs.KZG)
	planP, _, statsP, err := Optimize(g, in, optP)
	if err != nil {
		t.Fatal(err)
	}
	optN := optP
	optN.Prune = false
	planN, _, statsN, err := Optimize(g, in, optN)
	if err != nil {
		t.Fatal(err)
	}
	if statsP.Evaluated >= statsN.Evaluated {
		t.Fatalf("pruning did not reduce evaluations: %d vs %d", statsP.Evaluated, statsN.Evaluated)
	}
	if statsP.Pruned == 0 {
		t.Fatal("no candidates pruned")
	}
	// Pruned and exhaustive search should agree on cost (Table 12: "the
	// same end configuration was used in all cases").
	if planP.Cost > planN.Cost*1.05 {
		t.Fatalf("pruned plan much worse: %.4f vs %.4f", planP.Cost, planN.Cost)
	}
}

func TestPlanProveVerifyBothBackends(t *testing.T) {
	spec, _ := model.Get("dlrm-micro")
	g := spec.Build()
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		plan, _, _, err := Optimize(g, spec.Input(1), testOpts(backend))
		if err != nil {
			t.Fatal(err)
		}
		keys, err := plan.Setup()
		if err != nil {
			t.Fatal(err)
		}
		// Prove a *different* input than the sample used at setup.
		proof, err := plan.Prove(keys, spec.Input(42))
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Verify(keys, proof); err != nil {
			t.Fatalf("%v: %v", backend, err)
		}
		if proof.Proof.Size() <= 0 {
			t.Fatal("empty proof")
		}
	}
}

func TestSizeObjectiveShrinksProof(t *testing.T) {
	spec, _ := model.Get("twitter-micro")
	g := spec.Build()
	in := spec.Input(1)
	optT := testOpts(pcs.KZG)
	planT, _, _, err := Optimize(g, in, optT)
	if err != nil {
		t.Fatal(err)
	}
	optS := optT
	optS.Objective = MinSize
	planS, _, _, err := Optimize(g, in, optS)
	if err != nil {
		t.Fatal(err)
	}
	if planS.Size > planT.Size {
		t.Fatalf("size-optimized plan has bigger proof: %d vs %d", planS.Size, planT.Size)
	}
}

func TestBaselineConfigIsWorse(t *testing.T) {
	// The bit-decomposition / generic-dot baseline (prior-work style,
	// Table 9/11) must need substantially more rows than the optimized
	// gadget set.
	spec, _ := model.Get("mnist")
	g := spec.Build()
	in := spec.Input(1)
	fp := fixedpoint.Params{ScaleBits: 6, LookupBits: 10}

	good := gadgets.DefaultConfig(fp.LookupBits+2, fp)
	bGood, _, err := g.BuildCircuit(good, in)
	if err != nil {
		t.Fatal(err)
	}
	bad := BaselineConfig(fp)
	bBad, _, err := g.BuildCircuit(bad, in)
	if err != nil {
		t.Fatal(err)
	}
	if bBad.Rows() < 2*bGood.Rows() {
		t.Fatalf("baseline rows %d not much worse than optimized %d", bBad.Rows(), bGood.Rows())
	}
}

func TestFixedGadgetConfigBuilds(t *testing.T) {
	spec, _ := model.Get("dlrm-micro")
	g := spec.Build()
	cfg := FixedGadgetConfig(16, fixedpoint.Params{ScaleBits: 6, LookupBits: 10})
	b, _, err := g.BuildCircuit(cfg, spec.Input(1))
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows() == 0 {
		t.Fatal("no rows")
	}
}

func TestCostModelMonotoneInRows(t *testing.T) {
	// Doubling the row power must increase the estimated cost.
	l := costmodel.Layout{K: 10, NumInstance: 1, NumAdvice: 16, NumFixed: 20,
		NumLookups: 8, NumPermCols: 17, DMax: 4, NumConstraints: 30,
		ConstraintOps: 500, Backend: pcs.KZG}
	c1 := calib.EstimateProvingTime(l)
	l.K = 12
	c2 := calib.EstimateProvingTime(l)
	if c2 <= c1 {
		t.Fatalf("cost not monotone in rows: %.4f vs %.4f", c1, c2)
	}
}

func TestLayoutFormulas(t *testing.T) {
	// Equation (2): n_FFT = N_i + N_a + 3 N_lk + ceil(N_pm / (d-2)).
	l := costmodel.Layout{K: 10, NumInstance: 1, NumAdvice: 10, NumLookups: 4,
		NumPermCols: 11, DMax: 4, Backend: pcs.KZG}
	want := 1 + 10 + 12 + (11+1)/2
	if got := l.NumFFT(); got != want {
		t.Fatalf("NumFFT = %d, want %d", got, want)
	}
	if got := l.NumMSM(); got != want+3 {
		t.Fatalf("NumMSM(KZG) = %d, want %d", got, want+3)
	}
	l.Backend = pcs.IPA
	if got := l.NumMSM(); got != want+4 {
		t.Fatalf("NumMSM(IPA) = %d, want %d", got, want+4)
	}
	if got := l.ExtK(); got != 12 {
		t.Fatalf("ExtK = %d, want 12", got)
	}
}

func TestCalibrationSaveLoad(t *testing.T) {
	path := t.TempDir() + "/calib.json"
	if err := calib.Save(path); err != nil {
		t.Fatal(err)
	}
	c2, err := costmodel.LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.FieldOp != calib.FieldOp || len(c2.FFT) != len(calib.FFT) {
		t.Fatal("calibration round trip mismatch")
	}
	c3 := costmodel.LoadOrCalibrate(path)
	if c3.FieldOp != calib.FieldOp {
		t.Fatal("LoadOrCalibrate did not use cache")
	}
}

// TestPlanAtRepinsLayout: PlanAt must re-derive Layout/Cost/Size at the
// pinned K instead of inheriting the optimizer's choice (the pre-fix bug
// left Layout.K at whatever price() last computed).
func TestPlanAtRepinsLayout(t *testing.T) {
	spec, _ := model.Get("dlrm-micro")
	g := spec.Build()
	in := spec.Input(1)
	opt := testOpts(pcs.KZG)
	base, _, _, err := Optimize(g, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Pin one power of two above the optimizer's choice.
	n := base.N * 2
	p, err := PlanAt(g, in, base.Config, n, pcs.KZG, opt.Calibration)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != n || p.Layout.K != p.K {
		t.Fatalf("PlanAt(N=%d): plan K=%d but Layout.K=%d", n, p.K, p.Layout.K)
	}
	if p.Cost <= base.Cost {
		t.Fatalf("doubling rows did not increase the estimate: %.4f <= %.4f", p.Cost, base.Cost)
	}
	if _, err := PlanAt(g, in, base.Config, n-1, pcs.KZG, opt.Calibration); err == nil {
		t.Fatal("non-power-of-two N accepted")
	}
}
