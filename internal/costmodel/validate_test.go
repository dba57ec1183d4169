package costmodel

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/pcs"
)

func TestValidateRejectsPartialCalibration(t *testing.T) {
	full := func() *Calibration {
		return &Calibration{
			Hardware: "test",
			FFT:      map[int]float64{10: 1e-3},
			MSM:      map[int]float64{10: 2e-3},
			Lookup:   map[int]float64{10: 5e-4},
			FieldOp:  1e-8,
		}
	}
	if err := full().Validate(); err != nil {
		t.Fatalf("complete calibration rejected: %v", err)
	}
	if err := (*Calibration)(nil).Validate(); err == nil {
		t.Fatal("nil calibration validated")
	}
	for name, mod := range map[string]func(*Calibration){
		"empty FFT":    func(c *Calibration) { c.FFT = nil },
		"empty MSM":    func(c *Calibration) { c.MSM = map[int]float64{} },
		"empty Lookup": func(c *Calibration) { c.Lookup = nil },
		"zero FieldOp": func(c *Calibration) { c.FieldOp = 0 },
	} {
		c := full()
		mod(c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s validated", name)
		}
	}
}

// TestLoadRejectsPartialFile is the regression test for LoadOrCalibrate
// trusting any parseable JSON file: a calibration with only the FFT table
// populated priced MSMs, lookups, and field ops at zero and skewed layout
// selection. Such files must now be treated as missing.
func TestLoadRejectsPartialFile(t *testing.T) {
	dir := t.TempDir()

	partial := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(partial, []byte(`{"hardware":"x","fft":{"10":0.001}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadValidCalibration(partial); ok {
		t.Fatal("partial calibration file accepted")
	}

	complete := filepath.Join(dir, "complete.json")
	c := &Calibration{
		Hardware: "test",
		FFT:      map[int]float64{10: 1e-3},
		MSM:      map[int]float64{10: 2e-3},
		Lookup:   map[int]float64{10: 5e-4},
		FieldOp:  1e-8,
	}
	if err := c.Save(complete); err != nil {
		t.Fatal(err)
	}
	got, ok := loadValidCalibration(complete)
	if !ok {
		t.Fatal("complete calibration file rejected")
	}
	if got.Hardware != "test" || got.FFT[10] != 1e-3 {
		t.Fatalf("loaded calibration mangled: %+v", got)
	}

	if _, ok := loadValidCalibration(filepath.Join(dir, "missing.json")); ok {
		t.Fatal("missing file accepted")
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadValidCalibration(garbage); ok {
		t.Fatal("unparseable file accepted")
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

// An IPA opening folds the basis with variable-base MSMs where a KZG
// opening commits one witness; the difference must land in the opening
// stage, not perturb the others.
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
