package costmodel

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/poly"
)

// fittedCalibration returns a complete fit for KZG at CalibrationVersion.
func fittedCalibration() *Calibration {
	c := &Calibration{Version: CalibrationVersion, Hardware: "test", Fits: map[string]StageFit{}}
	for _, stage := range obs.StageNames() {
		c.Fits[FitKey(pcs.KZG, stage)] = StageFit{Gain: 2, PerRow: 1e-9}
	}
	return c
}

func TestValidateRejectsPartialCalibration(t *testing.T) {
	if err := StaticCalibration().Validate(); err != nil {
		t.Fatalf("static calibration rejected: %v", err)
	}
	if err := fittedCalibration().Validate(); err != nil {
		t.Fatalf("complete fitted calibration rejected: %v", err)
	}
	if err := (*Calibration)(nil).Validate(); err == nil {
		t.Fatal("nil calibration validated")
	}
	for name, mod := range map[string]func(*Calibration){
		"unversioned fits": func(c *Calibration) { c.Version = 0 },
		"other backend half-fitted": func(c *Calibration) {
			c.Fits[FitKey(pcs.IPA, obs.StageCommit.String())] = StageFit{Gain: 1}
		},
	} {
		c := fittedCalibration()
		mod(c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s validated", name)
		}
	}
}

// TestLoadRejectsPartialFile: a file whose fitted constants cannot all be
// applied is refused by LoadCalibration rather than half-applied; an
// unfitted file in the older per-size table format still loads, and prices
// as the static calibration.
func TestLoadRejectsPartialFile(t *testing.T) {
	dir := t.TempDir()

	partial := filepath.Join(dir, "partial.json")
	c := fittedCalibration()
	delete(c.Fits, FitKey(pcs.KZG, obs.StageOpen.String()))
	if err := c.Save(partial); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(partial); err == nil {
		t.Fatal("partial calibration file accepted")
	}

	complete := filepath.Join(dir, "complete.json")
	if err := fittedCalibration().Save(complete); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCalibration(complete)
	if err != nil {
		t.Fatalf("complete calibration file rejected: %v", err)
	}
	if got.Hardware != "test" || len(got.Fits) != len(obs.StageNames()) {
		t.Fatalf("loaded calibration mangled: %+v", got)
	}

	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"hardware":"local","fft":{"10":0.001},"msm":{"10":0.002},"lookup":{"10":0.0005},"field_op":1e-8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCalibration(legacy); err != nil || len(got.Fits) != 0 {
		t.Fatalf("legacy unfitted file: %+v, %v", got, err)
	}

	if _, err := LoadCalibration(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(garbage); err == nil {
		t.Fatal("unparseable file accepted")
	}
}

// TestLoadOrStaticRunsNoKernel: with no usable file — no path, a missing
// file, or a fit regressed before CalibrationVersion — the loader returns
// the static calibration, and it never runs a transform or an MSM to get
// there.
func TestLoadOrStaticRunsNoKernel(t *testing.T) {
	dir := t.TempDir()
	stale := fittedCalibration()
	stale.Version = CalibrationVersion - 1
	stalePath := filepath.Join(dir, "stale.json")
	if err := stale.Save(stalePath); err != nil {
		t.Fatal(err)
	}
	var counters obs.KernelCounters
	defer curve.SetKernelTrace(curve.SetKernelTrace(&counters))
	defer poly.SetKernelTrace(poly.SetKernelTrace(&counters))
	for _, path := range []string{"", filepath.Join(dir, "missing.json"), stalePath} {
		c := LoadOrStatic(path)
		if c.Hardware != "static" || c.Version != 0 || len(c.Fits) != 0 {
			t.Fatalf("LoadOrStatic(%q) = %+v, want the static calibration", path, c)
		}
	}
	for i := range counters.MSM {
		if n := counters.MSM[i].Load() + counters.FFT[i].Load(); n != 0 {
			t.Fatalf("loading ran %d kernels at 2^%d", n, i)
		}
	}
}

// PredictStages is a decomposition of EstimateProvingTime, not a second
// model: the per-stage values must sum exactly to eq. (1)'s total so the
// "total" row of the comparison validates the estimator end to end.
func TestPredictStagesSumsToEstimate(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		l := testShape(10, 10, 4, 300, backend)
		p := calib.PredictStages(l)
		if len(p) != len(obs.StageNames()) {
			t.Fatalf("%v: prediction has %d stages, want %d", backend, len(p), len(obs.StageNames()))
		}
		var sum float64
		for _, name := range obs.StageNames() {
			v, ok := p[name]
			if !ok {
				t.Fatalf("%v: prediction missing stage %q", backend, name)
			}
			if v < 0 {
				t.Fatalf("%v: stage %q predicted negative time %v", backend, name, v)
			}
			sum += v
		}
		total := calib.EstimateProvingTime(l)
		if diff := math.Abs(sum - total); diff > 1e-12*total {
			t.Fatalf("%v: stage sum %v != estimate %v (diff %v)", backend, sum, total, diff)
		}
	}
}

// An IPA opening runs two commit-table MSMs per round where a KZG opening
// commits one witness; the difference must land in the opening stage, not
// perturb the others.
func TestPredictStagesIPAExtraMSMInOpen(t *testing.T) {
	kzg := calib.PredictStages(testShape(10, 10, 4, 300, pcs.KZG))
	ipa := calib.PredictStages(testShape(10, 10, 4, 300, pcs.IPA))
	for _, name := range obs.StageNames() {
		if name == obs.StageOpen.String() {
			if ipa[name] <= kzg[name] {
				t.Fatalf("IPA open prediction %v not larger than KZG %v", ipa[name], kzg[name])
			}
			continue
		}
		if ipa[name] != kzg[name] {
			t.Fatalf("stage %q differs across backends: %v vs %v", name, kzg[name], ipa[name])
		}
	}
}
