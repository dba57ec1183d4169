package core

import (
	"math/bits"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

var calib = costmodel.StaticCalibration()

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
		plan.Config.NumCols, plan.K, plan.Config.Dot, plan.Config.UseConstDot, plan.Cost, plan.Layout.ProofBytes)
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
	if planS.Layout.ProofBytes > planT.Layout.ProofBytes {
		t.Fatalf("size-optimized plan has bigger proof: %d vs %d", planS.Layout.ProofBytes, planT.Layout.ProofBytes)
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
	// The same circuit on a grid four times taller must cost more.
	spec, _ := model.Get("mnist")
	cfg := gadgets.DefaultConfig(16, fixedpoint.Params{ScaleBits: 6, LookupBits: 10})
	b, _, err := spec.Build().BuildCircuit(cfg, spec.Input(1))
	if err != nil {
		t.Fatal(err)
	}
	var costs []float64
	for _, n := range []int{b.MinN(), 4 * b.MinN()} {
		art, err := b.Finalize(n)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, calib.EstimateProvingTime(plonkish.ShapeOf(art.CS, art.N, pcs.KZG)))
	}
	if costs[1] <= costs[0] {
		t.Fatalf("cost not monotone in rows: %.4f vs %.4f", costs[0], costs[1])
	}
}

// formulaCS is a circuit with 1 instance and 10 advice columns, 4 range
// lookups (degree 4, so d_max = 4 and two columns per grand product) and a
// copy constraint, so all 11 columns are under the permutation.
func formulaCS() *plonkish.CS {
	cs := &plonkish.CS{NumInstance: 1, NumAdvice: 10, NumFixed: 3}
	cs.AddGate("mul", plonkish.Mul(plonkish.V(plonkish.FixedCol(0)),
		plonkish.Sub(plonkish.V(plonkish.AdviceCol(2)),
			plonkish.Mul(plonkish.V(plonkish.AdviceCol(0)), plonkish.V(plonkish.AdviceCol(1))))))
	for i := 0; i < 4; i++ {
		cs.AddLookup(plonkish.Lookup{Name: "range", Selector: plonkish.V(plonkish.FixedCol(1)),
			Inputs: []plonkish.Expr{plonkish.V(plonkish.AdviceCol(i))},
			Table:  []plonkish.Col{plonkish.FixedCol(2)}, TableLen: 16})
	}
	cs.Copy(plonkish.Cell{Col: plonkish.AdviceCol(2), Row: 1}, plonkish.Cell{Col: plonkish.InstanceCol(0), Row: 0})
	return cs
}

// TestLayoutFormulas pins the counts the cost model prices for a circuit
// of known shape. Equation (2) counts n_FFT = N_i + N_a + 3 N_lk +
// ceil(N_pm / (d-2)); this prover transforms two polynomials per lookup (m
// and phi), so its size-n transforms are N_i + N_a at commit, 2 N_lk at
// lookup, ceil(N_pm / (d-2)) at permutation, plus the quotient's d − 1 coset
// parts: one transform per queried column of the proof's own — the 11
// permutation columns, m and phi per lookup, z per chunk — and one inverse
// per part. The 3 + 3 fixed and 11 sigma columns are the proving key's.
func TestLayoutFormulas(t *testing.T) {
	const k = 10
	cs := formulaCS()
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		s := plonkish.ShapeOf(cs, 1<<k, backend)
		if s.DMax != 4 {
			t.Fatalf("%v: DMax = %d, want 4", backend, s.DMax)
		}
		if got := bits.TrailingZeros(uint(s.ExtN)); got != 12 {
			t.Fatalf("%v: ExtK = %d, want 12", backend, got)
		}
		chunks := (11 + 1) / 2
		if s.KeyCols != 3+3+11 || s.QueriedCols != s.KeyCols+11+2*4+chunks {
			t.Fatalf("%v: %d queried columns, %d of the key, want %d and %d",
				backend, s.QueriedCols, s.KeyCols, 3+3+11+11+2*4+chunks, 3+3+11)
		}
		want := [obs.NumStages]int{1 + 10, 2 * 4, chunks, 3*(11+2*4+chunks) + 3, 0}
		if s.Transforms != want {
			t.Fatalf("%v: Transforms = %v, want %v", backend, s.Transforms, want)
		}
		wantCommits := [obs.NumStages]int{10, 2 * 4, chunks, 3, s.Opens}
		if backend == pcs.IPA {
			wantCommits[obs.StageOpen] = 0
		}
		if s.Commits != wantCommits {
			t.Fatalf("%v: Commits = %v, want %v", backend, s.Commits, wantCommits)
		}
		if wantRounds := map[pcs.Backend]int{pcs.KZG: 0, pcs.IPA: k}[backend]; s.FoldRounds != wantRounds {
			t.Fatalf("%v: FoldRounds = %d, want %d", backend, s.FoldRounds, wantRounds)
		}
	}
}

func TestCalibrationSaveLoad(t *testing.T) {
	fitted := &costmodel.Calibration{Version: costmodel.CalibrationVersion, Hardware: "test", Fits: map[string]costmodel.StageFit{}}
	for _, stage := range obs.StageNames() {
		fitted.Fits[costmodel.FitKey(pcs.KZG, stage)] = costmodel.StageFit{Gain: 3, PerRow: 2e-9}
	}
	path := t.TempDir() + "/calib.json"
	if err := fitted.Save(path); err != nil {
		t.Fatal(err)
	}
	c2, err := costmodel.LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Hardware != fitted.Hardware || len(c2.Fits) != len(fitted.Fits) {
		t.Fatal("calibration round trip mismatch")
	}
	if c3 := costmodel.LoadOrStatic(path); c3.Hardware != fitted.Hardware {
		t.Fatal("LoadOrStatic did not use the file")
	}
}

// TestOptimizeRejectsInvalidCalibration: Algorithm 1 must not rank layouts
// with a calibration whose fitted constants cannot all be applied.
func TestOptimizeRejectsInvalidCalibration(t *testing.T) {
	spec, err := model.Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	stale := &costmodel.Calibration{Version: costmodel.CalibrationVersion - 1,
		Fits: map[string]costmodel.StageFit{costmodel.FitKey(pcs.KZG, "commit"): {Gain: 1}}}
	for name, c := range map[string]*costmodel.Calibration{"nil": nil, "stale fit": stale} {
		opt := DefaultOptions(pcs.KZG, fixedpoint.Params{ScaleBits: 5, LookupBits: 9})
		opt.Calibration = c
		if _, _, _, err := Optimize(spec.Build(), spec.Input(1), opt); err == nil {
			t.Fatalf("%s calibration accepted", name)
		}
	}
}

// TestManyOutputsTakeALargerGrid: a model with more public outputs than
// layout rows needs a grid tall enough for its instance column. A two-input
// add lays out few rows per output, so the grid is sized by the outputs.
func TestManyOutputsTakeALargerGrid(t *testing.T) {
	for _, n := range []int{16, 3000} {
		g := &model.Graph{
			Name: "wide-add",
			Inputs: []model.InputSpec{
				{Name: "x", Shape: []int{n}, Kind: model.FloatInput},
				{Name: "y", Shape: []int{n}, Kind: model.FloatInput},
			},
			Weights: map[string]model.Weight{},
			Nodes:   []model.Node{{Op: "add", Inputs: []string{"x", "y"}, Output: "z"}},
			Outputs: []string{"z"},
		}
		in := model.NewInput()
		for _, name := range []string{"x", "y"} {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i%7-3) / 4
			}
			in.Floats[name] = v
		}
		plan, _, _, err := Optimize(g, in, testOpts(pcs.KZG))
		if err != nil {
			t.Fatalf("%d outputs: %v", n, err)
		}
		if u := plan.N - plonkish.ZKRows; u < n {
			t.Fatalf("%d outputs on %d usable rows", n, u)
		}
		keys, err := plan.Setup()
		if err != nil {
			t.Fatal(err)
		}
		proof, err := plan.Prove(keys, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Verify(keys, proof); err != nil {
			t.Fatalf("%d outputs: %v", n, err)
		}
	}
}
