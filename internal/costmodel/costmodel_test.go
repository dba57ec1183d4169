package costmodel

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

var calib = StaticCalibration()

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

// TestInterpolationExtrapolates: every unit price grows with the size it
// is asked for, at the rate of its operation family's shape.
func TestInterpolationExtrapolates(t *testing.T) {
	t14 := fftTime(14)
	t10 := fftTime(10)
	if t14 <= t10 {
		t.Fatalf("FFT price not increasing: %v vs %v", t14, t10)
	}
	// (2^14·14)/(2^10·10) = 22.4x.
	if ratio := t14 / t10; ratio < 22.3 || ratio > 22.5 {
		t.Fatalf("FFT price ratio %.2f, want n·log n's 22.4", ratio)
	}
	for name, price := range map[string]func(int) float64{"fixed-base MSM": fixedMSMTime, "lookup": lookupTime} {
		if price(14) <= price(10) || price(10) <= 0 {
			t.Fatalf("%s price not positive and increasing: %v at 2^10, %v at 2^14", name, price(10), price(14))
		}
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
