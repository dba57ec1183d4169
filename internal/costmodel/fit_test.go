package costmodel

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

// fitLayout returns a plausible mnist-shaped circuit at the given size.
func fitLayout(k, cols int, backend pcs.Backend) plonkish.Shape {
	return testShape(k, cols, 3, 300, backend)
}

// reportFor fabricates a traced report whose stage times follow
// gain·base + perRow·work exactly — the model family the fitter assumes —
// so the regression must recover the constants and the fitted prediction
// must reproduce the "measured" times.
func reportFor(l plonkish.Shape, gain, perRow float64) *obs.Report {
	base := basePredictStages(l)
	work := stageWork(l)
	r := &obs.Report{}
	for _, name := range obs.StageNames() {
		sec := gain*base[name] + perRow*work[name]
		r.Stages = append(r.Stages, obs.StageTiming{Stage: name, Seconds: sec})
		r.TotalSeconds += sec
	}
	return r
}

func TestFitRecoversPlantedConstants(t *testing.T) {
	const gain, perRow = 7.5, 3e-9
	c := *calib // copy the package-level calibration
	samples := []Sample{
		{Shape: fitLayout(10, 8, pcs.KZG), Report: reportFor(fitLayout(10, 8, pcs.KZG), gain, perRow)},
		{Shape: fitLayout(12, 12, pcs.KZG), Report: reportFor(fitLayout(12, 12, pcs.KZG), gain, perRow)},
		{Shape: fitLayout(13, 16, pcs.KZG), Report: reportFor(fitLayout(13, 16, pcs.KZG), gain, perRow)},
	}
	if err := c.FitFromSamples(samples); err != nil {
		t.Fatal(err)
	}
	if c.Version != CalibrationVersion {
		t.Fatalf("fit left version %d, want %d", c.Version, CalibrationVersion)
	}
	// The fitted prediction must reproduce the planted measurements on a
	// layout inside the sweep and on one outside it.
	for _, l := range []plonkish.Shape{fitLayout(12, 12, pcs.KZG), fitLayout(11, 10, pcs.KZG)} {
		want := reportFor(l, gain, perRow)
		got := c.PredictStages(l)
		for _, name := range obs.StageNames() {
			w := want.StageSeconds(name)
			g := got[name]
			if w == 0 {
				continue
			}
			if rel := math.Abs(g-w) / w; rel > 0.05 {
				t.Fatalf("stage %s: fitted prediction %.4g vs planted %.4g (rel %.3f)", name, g, w, rel)
			}
		}
	}
}

func TestFitSumsToEstimate(t *testing.T) {
	c := *calib
	l := fitLayout(10, 8, pcs.IPA)
	if err := c.FitFromSamples([]Sample{{Shape: l, Report: reportFor(l, 5, 1e-9)}}); err != nil {
		t.Fatal(err)
	}
	p := c.PredictStages(l)
	var sum float64
	for _, name := range obs.StageNames() {
		sum += p[name]
	}
	total := c.EstimateProvingTime(l)
	if diff := math.Abs(sum - total); diff > 1e-12*total {
		t.Fatalf("fitted stage sum %v != estimate %v", sum, total)
	}
}

func TestFitRequiresSamples(t *testing.T) {
	c := *calib
	if err := c.FitFromSamples(nil); err == nil {
		t.Fatal("fit with no samples succeeded")
	}
	if err := c.FitFromSamples([]Sample{{Shape: fitLayout(10, 8, pcs.KZG)}}); err == nil {
		t.Fatal("fit with nil report succeeded")
	}
}

// TestFitOnlyAffectsFittedBackend: a sweep that covered only KZG must leave
// IPA predictions on the unfitted path rather than zeroing or scaling
// them with another backend's constants.
func TestFitOnlyAffectsFittedBackend(t *testing.T) {
	c := *calib
	base := c.PredictStages(fitLayout(10, 8, pcs.IPA))
	l := fitLayout(10, 8, pcs.KZG)
	if err := c.FitFromSamples([]Sample{{Shape: l, Report: reportFor(l, 9, 0)}}); err != nil {
		t.Fatal(err)
	}
	after := c.PredictStages(fitLayout(10, 8, pcs.IPA))
	for _, name := range obs.StageNames() {
		if after[name] != base[name] {
			t.Fatalf("IPA stage %s changed by a KZG-only fit: %v -> %v", name, base[name], after[name])
		}
	}
	// And the KZG side did change.
	kzg := c.PredictStages(l)
	if kzg["commit"] <= base["commit"] {
		t.Fatal("KZG fit had no effect")
	}
}

// TestFittedRoundTrip pins the persistence contract: fit -> Save ->
// LoadOrStatic must yield byte-identical predictions (encoding/json
// round-trips float64 exactly), and a fitted file with missing fitted
// constants must be rejected rather than silently half-applied.
func TestFittedRoundTrip(t *testing.T) {
	c := *calib
	samples := []Sample{
		{Shape: fitLayout(10, 8, pcs.KZG), Report: reportFor(fitLayout(10, 8, pcs.KZG), 6, 2e-9)},
		{Shape: fitLayout(12, 12, pcs.KZG), Report: reportFor(fitLayout(12, 12, pcs.KZG), 6, 2e-9)},
		{Shape: fitLayout(10, 8, pcs.IPA), Report: reportFor(fitLayout(10, 8, pcs.IPA), 8, 4e-9)},
	}
	if err := c.FitFromSamples(samples); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "calib-fitted.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got := LoadOrStatic(path)
	if got.Version != CalibrationVersion {
		t.Fatalf("loaded version %d, want %d", got.Version, CalibrationVersion)
	}
	if len(got.Fits) != len(c.Fits) {
		t.Fatalf("loaded %d fit entries, want %d", len(got.Fits), len(c.Fits))
	}
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		l := fitLayout(11, 10, backend)
		want := c.PredictStages(l)
		have := got.PredictStages(l)
		for _, name := range obs.StageNames() {
			if have[name] != want[name] {
				t.Fatalf("%v stage %s: loaded prediction %v != fitted %v", backend, name, have[name], want[name])
			}
		}
	}
}

// TestV2FileMissingFitsRejected: a calibration claiming a fitted version
// (2 or later) without (or with partial) fitted constants is a malformed
// file, not a fallback.
func TestV2FileMissingFitsRejected(t *testing.T) {
	base := func() *Calibration {
		c := *calib
		c.Version = CalibrationVersion
		c.Fits = map[string]StageFit{}
		for _, stage := range obs.StageNames() {
			c.Fits[FitKey(pcs.KZG, stage)] = StageFit{Gain: 2, PerRow: 1e-9}
		}
		return &c
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("complete fitted calibration rejected: %v", err)
	}
	for name, mod := range map[string]func(*Calibration){
		"no fits":       func(c *Calibration) { c.Fits = nil },
		"empty fits":    func(c *Calibration) { c.Fits = map[string]StageFit{} },
		"missing stage": func(c *Calibration) { delete(c.Fits, FitKey(pcs.KZG, "open")) },
		"negative gain": func(c *Calibration) { c.Fits[FitKey(pcs.KZG, "open")] = StageFit{Gain: -1} },
		"NaN per-row": func(c *Calibration) {
			c.Fits[FitKey(pcs.KZG, "open")] = StageFit{Gain: 1, PerRow: math.NaN()}
		},
		"future version": func(c *Calibration) { c.Version = CalibrationVersion + 1 },
	} {
		c := base()
		mod(c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s validated", name)
		}
	}
	// And the load path treats such a file as missing.
	c := base()
	delete(c.Fits, FitKey(pcs.KZG, "open"))
	path := filepath.Join(t.TempDir(), "partial-fitted.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(path); err == nil {
		t.Fatal("fitted file with missing fitted constants accepted")
	}
}

// TestStaleFitRefused: constants fitted at an earlier calibration version
// were regressed against another base (eq. (2)'s hand-derived counts at
// version 2, microbenchmarked unit costs at version 3), so a saved stale fit
// must not be applied: Validate rejects it and the load path treats it as
// missing, so LoadOrStatic prices at the static units.
func TestStaleFitRefused(t *testing.T) {
	c := *calib
	if err := c.FitFromSamples([]Sample{{Shape: fitLayout(10, 8, pcs.KZG), Report: reportFor(fitLayout(10, 8, pcs.KZG), 6, 2e-9)}}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{2, CalibrationVersion - 1} {
		c.Version = v
		if err := c.Validate(); err == nil {
			t.Fatalf("v%d fitted calibration validated", v)
		}
		path := filepath.Join(t.TempDir(), "calib-stale.json")
		if err := c.Save(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCalibration(path); err == nil {
			t.Fatalf("saved v%d fitted calibration accepted", v)
		}
	}
	// Without the stale fit it is a usable unfitted calibration.
	c.Version, c.Fits = 0, nil
	if err := c.Validate(); err != nil {
		t.Fatalf("unfitted calibration rejected: %v", err)
	}
}

func TestSolveStageFitFallbacks(t *testing.T) {
	// Single sample: pure gain fit.
	f := solveStageFit([]fitRow{{base: 0.1, work: 1e6, measured: 0.9}})
	if math.Abs(f.Gain-9) > 1e-9 || f.PerRow != 0 {
		t.Fatalf("single-sample fit = %+v, want gain 9", f)
	}
	// No base signal: work-only pricing.
	f = solveStageFit([]fitRow{{base: 0, work: 1e6, measured: 0.5}, {base: 0, work: 2e6, measured: 1.0}})
	if f.Gain != 1 || math.Abs(f.PerRow-5e-7) > 1e-12 {
		t.Fatalf("work-only fit = %+v, want perRow 5e-7", f)
	}
	// No signal at all: neutral correction.
	f = solveStageFit([]fitRow{{base: 0, work: 0, measured: 0}})
	if f.Gain != 1 || f.PerRow != 0 {
		t.Fatalf("no-signal fit = %+v, want neutral", f)
	}
}
