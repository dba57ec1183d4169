package core

import (
	"sort"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcs"
)

// kendall computes Kendall's rank correlation between two equal-length
// vectors (ties dropped).
func kendall(a, b []float64) float64 {
	concordant, discordant := 0, 0
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			s := (a[i] - a[j]) * (b[i] - b[j])
			switch {
			case s > 0:
				concordant++
			case s < 0:
				discordant++
			}
		}
	}
	pairs := len(a) * (len(a) - 1) / 2
	if pairs == 0 {
		return 1
	}
	return float64(concordant-discordant) / float64(pairs)
}

// TestFittedModelRanksRealLayouts is the end-to-end validation the cost
// model exists for (ROADMAP item 3): after the trace-driven fit, Algorithm
// 1's objective function must rank candidate physical layouts in the same
// order as measured proving times, and its absolute estimate must land
// near reality rather than 5–20x under it. The test proves real circuits
// and takes tens of seconds.
func TestFittedModelRanksRealLayouts(t *testing.T) {
	if testing.Short() {
		t.Skip("proves several real circuits")
	}
	calib := costmodel.StaticCalibration()
	fp := fixedpoint.Params{ScaleBits: 5, LookupBits: 9}
	n, err := FitCalibration(calib, FitConfig{
		Model:    "mnist",
		Backends: []pcs.Backend{pcs.KZG},
		Cols:     []int{6, 10},
		FP:       fp,
		Log:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("fit sweep proved %d layouts, want >= 2", n)
	}
	if calib.Version != costmodel.CalibrationVersion || len(calib.Fits) == 0 {
		t.Fatalf("fit did not produce a fitted calibration (version %d, %d fits)", calib.Version, len(calib.Fits))
	}

	spec, err := model.Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build()
	in := spec.Input(1)
	opt := DefaultOptions(pcs.KZG, fp)
	opt.MinCols, opt.MaxCols = 6, 16
	opt.Calibration = calib
	_, cands, _, err := Optimize(g, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 3 {
		t.Fatalf("optimizer produced %d candidates, want >= 3 for a ranking check", len(cands))
	}
	// Pick three candidates spanning the predicted range: cheapest, median,
	// most expensive.
	sort.Slice(cands, func(i, j int) bool { return cands[i].Cost < cands[j].Cost })
	picks := []Candidate{cands[0], cands[len(cands)/2], cands[len(cands)-1]}

	est := make([]float64, len(picks))
	meas := make([]float64, len(picks))
	var cheapestCmp []obs.StageComparison
	for i, cand := range picks {
		plan := &Plan{Graph: g, Sample: in, Candidate: cand, Backend: pcs.KZG, Calibration: calib}
		keys, err := plan.Setup()
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := plan.ProveTraced(keys, in)
		if err != nil {
			t.Fatal(err)
		}
		est[i] = cand.Cost
		meas[i] = rep.TotalSeconds
		t.Logf("candidate cols=%d 2^%d: predicted %.2fs measured %.2fs", cand.Config.NumCols, cand.K, est[i], meas[i])
		if i == 0 {
			cheapestCmp = plan.CompareEstimate(rep)
		}
	}

	// Ranking: overall rank correlation must be positive, and any pair the
	// model separates by >= 1.5x must be ordered correctly (small gaps may
	// legitimately flip under timing noise; big ones may not).
	if tau := kendall(est, meas); tau <= 0 {
		t.Fatalf("predicted/measured rank correlation tau = %.2f (est %v, meas %v)", tau, est, meas)
	}
	for i := range picks {
		for j := i + 1; j < len(picks); j++ {
			lo, hi := est[i], est[j]
			mlo, mhi := meas[i], meas[j]
			if lo > hi {
				lo, hi, mlo, mhi = hi, lo, mhi, mlo
			}
			if hi >= 1.5*lo && mhi < mlo {
				t.Errorf("model separates candidates %.2fs vs %.2fs but measured order flipped (%.2fs vs %.2fs)",
					lo, hi, mlo, mhi)
			}
		}
	}

	// Accuracy: the fitted estimate for the chosen (cheapest) layout must be
	// within 40% of the measured total — the raw eq. (1) model sat at -83%.
	total, ok := obs.TotalRow(cheapestCmp)
	if !ok {
		t.Fatal("comparison has no total row")
	}
	if total.RelErr < -0.4 || total.RelErr > 0.4 {
		t.Fatalf("fitted model total rel_err %+.3f outside ±0.40", total.RelErr)
	}
	t.Logf("fitted total rel_err on chosen layout: %+.3f", total.RelErr)
}

// TestFitCalibrationRejectsNil pins the cheap error paths so they do not
// require proving anything.
func TestFitCalibrationRejectsNil(t *testing.T) {
	if _, err := FitCalibration(nil, FitConfig{}); err == nil {
		t.Fatal("nil calibration accepted")
	}
	c := costmodel.StaticCalibration()
	if _, err := FitCalibration(c, FitConfig{Model: "no-such-model"}); err == nil {
		t.Fatal("unknown sweep model accepted")
	}
}
