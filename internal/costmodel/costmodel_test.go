package costmodel

import (
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

var calib = Calibrate(8, 10)

// testShape returns the counts of a plausible mnist-like circuit at 2^k rows
// with cols advice columns, the given lookups and varying quotient ops,
// d_max 4 (four coset parts, three quotient pieces) and three openings.
// Real shapes come from plonkish.ShapeOf; these tests only need counts that
// move one factor at a time.
func testShape(k, cols, lookups, ops int, backend pcs.Backend) plonkish.Shape {
	n := 1 << k
	s := plonkish.Shape{Backend: backend, K: k, N: n, ExtN: 4 * n, DMax: 4,
		NumLookups: lookups, NumConstraints: 20, PermCols: cols + 1,
		QueriedCols: 2*cols + 3*lookups + 8, Ops: ops + 50, VaryingOps: ops,
		Queries: 3*cols + 3*lookups + 6, Opens: 3}
	chunks := (cols + 2) / 2
	s.Transforms = [obs.NumStages]int{cols + 1, 2 * lookups, chunks, 4 * s.QueriedCols, 0}
	s.Commits = [obs.NumStages]int{cols, 2 * lookups, chunks, 3, s.Opens}
	if backend == pcs.IPA {
		s.Commits[obs.StageOpen], s.FoldRounds = 0, k
	}
	return s
}

// TestMSMBasisPairwiseDistinct is the regression test for the calibration
// bug where the MSM benchmark filled every slot with the same generator
// point (the "base" was never advanced), so eq. (1) costs were measured on
// a degenerate input.
func TestMSMBasisPairwiseDistinct(t *testing.T) {
	const n = 512
	pts := msmBasis(n)
	if len(pts) != n {
		t.Fatalf("got %d points, want %d", len(pts), n)
	}
	seen := make(map[[32]byte]int, n)
	for i, p := range pts {
		if p.IsZero() {
			t.Fatalf("point %d is the identity", i)
		}
		if !p.IsOnCurve() {
			t.Fatalf("point %d not on curve", i)
		}
		key := p.Bytes()
		if j, dup := seen[key]; dup {
			t.Fatalf("points %d and %d are equal", j, i)
		}
		seen[key] = i
	}
}

func TestCalibrationPopulated(t *testing.T) {
	if calib.FieldOp <= 0 {
		t.Fatal("field op cost not measured")
	}
	for k := 8; k <= 10; k++ {
		if calib.FFT[k] <= 0 || calib.MSM[k] <= 0 || calib.Lookup[k] <= 0 {
			t.Fatalf("missing measurement at k=%d", k)
		}
	}
}

func TestInterpolationExtrapolates(t *testing.T) {
	// k=14 is outside the measured range; the estimate must scale up from
	// the nearest measured point following n log n.
	t14 := calib.TimeFFT(14)
	t10 := calib.TimeFFT(10)
	if t14 <= t10 {
		t.Fatalf("FFT extrapolation not increasing: %v vs %v", t14, t10)
	}
	// Roughly (2^14·14)/(2^10·10) = 22.4x.
	ratio := t14 / t10
	if ratio < 10 || ratio > 40 {
		t.Fatalf("FFT extrapolation ratio %.1f implausible", ratio)
	}
	if calib.TimeMSM(14) <= calib.TimeMSM(10) {
		t.Fatal("MSM extrapolation not increasing")
	}
	if calib.TimeLookup(14) <= calib.TimeLookup(10) {
		t.Fatal("lookup extrapolation not increasing")
	}
}

func TestMeasuredValuesUsedDirectly(t *testing.T) {
	if calib.TimeFFT(9) != calib.FFT[9] {
		t.Fatal("measured point should be returned verbatim")
	}
}

func TestEstimateIncreasesWithEachFactor(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t0 := calib.EstimateProvingTime(testShape(10, 10, 4, 300, backend))
		for name, s := range map[string]plonkish.Shape{
			"advice":  testShape(10, 20, 4, 300, backend),
			"lookups": testShape(10, 10, 8, 300, backend),
			"rows":    testShape(11, 10, 4, 300, backend),
			"ops":     testShape(10, 10, 4, 600, backend),
		} {
			if calib.EstimateProvingTime(s) <= t0 {
				t.Fatalf("%v: estimate not increasing in %s", backend, name)
			}
		}
	}
}

// TestProofSizeIPABiggerThanKZG checks the proof size the size objective
// ranks layouts by: an IPA opening carries 2k points and a scalar where a
// KZG opening carries one point, and nothing else differs.
func TestProofSizeIPABiggerThanKZG(t *testing.T) {
	const n = 1 << 12
	cs := &plonkish.CS{NumInstance: 1, NumAdvice: 10, NumFixed: 2}
	a, b, c := plonkish.V(plonkish.AdviceCol(0)), plonkish.V(plonkish.AdviceCol(1)), plonkish.V(plonkish.AdviceCol(2))
	cs.AddGate("mul", plonkish.Mul(plonkish.V(plonkish.FixedCol(0)), plonkish.Sub(c, plonkish.Mul(a, b))))
	cs.AddLookup(plonkish.Lookup{Name: "range", Selector: plonkish.V(plonkish.FixedCol(0)),
		Inputs: []plonkish.Expr{a}, Table: []plonkish.Col{plonkish.FixedCol(1)}, TableLen: 16})
	cs.Copy(plonkish.Cell{Col: plonkish.AdviceCol(2), Row: 0}, plonkish.Cell{Col: plonkish.InstanceCol(0), Row: 0})
	kzg := plonkish.ShapeOf(cs, n, pcs.KZG)
	ipa := plonkish.ShapeOf(cs, n, pcs.IPA)
	if ipa.ProofBytes <= kzg.ProofBytes {
		t.Fatalf("IPA proof size %d not larger than KZG %d", ipa.ProofBytes, kzg.ProofBytes)
	}
	if diff, want := ipa.ProofBytes-kzg.ProofBytes, kzg.Opens*(pcs.OpeningSize(pcs.IPA, n)-pcs.OpeningSize(pcs.KZG, n)); diff != want {
		t.Fatalf("IPA proof is %d bytes larger than KZG, want %d (%d openings)", diff, want, kzg.Opens)
	}
}

// TestInterpNearestTieIsDeterministic: with a gap in the measured sizes, a
// size midway between two measurements must be priced from the smaller one
// every time, not from whichever map iteration visits first — the estimate
// is stored in artifacts.
func TestInterpNearestTieIsDeterministic(t *testing.T) {
	c := &Calibration{FFT: map[int]float64{10: 1e-3, 12: 9e-3}}
	want := 1e-3 * fftShape(11) / fftShape(10)
	for i := 0; i < 100; i++ {
		if got := c.TimeFFT(11); got != want {
			t.Fatalf("lookup %d: TimeFFT(11) = %v, want %v (extrapolated from k=10)", i, got, want)
		}
	}
}

// TestEmptyTableInterp pins the guard against hand-built partial
// calibrations: an empty (but non-nil) table must never price an operation
// family at zero — exactly the partial-file bug LoadOrCalibrate rejects —
// but fall back to a positive field-op-derived floor instead.
func TestEmptyTableInterp(t *testing.T) {
	empty := &Calibration{FFT: map[int]float64{}, MSM: map[int]float64{}, Lookup: map[int]float64{}}
	if v := empty.TimeFFT(10); v <= 0 {
		t.Fatalf("empty FFT table priced at %v, want positive floor", v)
	}
	if v := empty.TimeMSM(10); v <= 0 {
		t.Fatalf("empty MSM table priced at %v, want positive floor", v)
	}
	if v := empty.TimeLookup(10); v <= 0 {
		t.Fatalf("empty Lookup table priced at %v, want positive floor", v)
	}
	// With a calibrated FieldOp the floors scale with it; without one they
	// use a conservative default — either way never zero.
	withOp := &Calibration{FFT: map[int]float64{}, MSM: map[int]float64{}, Lookup: map[int]float64{}, FieldOp: 1e-8}
	if withOp.TimeMSM(10) <= empty.TimeMSM(10) {
		t.Fatal("floor does not scale with calibrated FieldOp")
	}
	// A measured table is still used verbatim.
	meas := &Calibration{FFT: map[int]float64{10: 1e-3}}
	if meas.TimeFFT(10) != 1e-3 {
		t.Fatal("measured value not returned verbatim")
	}
}

// TestCalibratedMSMTracksFullWidth is the regression test for the MSM
// calibration bias: the old benchmark used scalars 3i+7 (≤ 64 bits), which
// left every high signed-digit Pippenger window empty and measured a
// fraction of a real commitment MSM. The calibrated cost must now be
// within a factor bound of an independently timed full-width-scalar MSM.
func TestCalibratedMSMTracksFullWidth(t *testing.T) {
	const k = 9
	pts := msmBasis(1 << k)
	scs := make([]ff.Element, 1<<k)
	for i := range scs {
		scs[i] = ff.Random()
	}
	ref := medianSeconds(calibrationReps, func() { curve.MSM(pts, scs) })
	got := calib.MSM[k]
	if got <= 0 || ref <= 0 {
		t.Fatalf("degenerate timings: calibrated %v, reference %v", got, ref)
	}
	if ratio := got / ref; ratio < 0.3 || ratio > 3 {
		t.Fatalf("calibrated MSM cost %.3gs is %.2fx the full-width reference %.3gs (want within 0.3x..3x)",
			got, ratio, ref)
	}
}

func TestCalibrateMeasuresFixedBaseMSM(t *testing.T) {
	// Calibrate populates the table-warm fixed-base timings, and the warm
	// path must not be slower than the generic kernel by more than noise
	// (it does strictly less work: no Horner doublings, one reduction).
	if len(calib.MSMFixed) == 0 {
		t.Fatal("Calibrate left the msm_fixed table empty")
	}
	for k, fixed := range calib.MSMFixed {
		if fixed <= 0 {
			t.Fatalf("msm_fixed[%d] = %v, want positive", k, fixed)
		}
		if generic := calib.MSM[k]; generic > 0 && fixed > 2*generic {
			t.Fatalf("table-warm MSM at 2^%d (%.3gs) slower than 2x the generic kernel (%.3gs)",
				k, fixed, generic)
		}
	}
	if v := calib.TimeMSMFixed(9); v <= 0 {
		t.Fatalf("TimeMSMFixed(9) = %v, want positive", v)
	}
}

func TestTimeMSMFixedFallsBackToMSM(t *testing.T) {
	// Legacy calibration files carry no msm_fixed table; commitments must
	// then be priced at the generic MSM cost, not zero.
	legacy := &Calibration{MSM: map[int]float64{10: 2e-3}}
	if got, want := legacy.TimeMSMFixed(10), legacy.TimeMSM(10); got != want {
		t.Fatalf("fallback TimeMSMFixed = %v, want TimeMSM = %v", got, want)
	}
}
