package zkml

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gadgets"
)

func opts() Options {
	return Options{ScaleBits: 6, LookupBits: 10, MaxCols: 20}
}

func TestCompileProveVerify(t *testing.T) {
	spec, err := Model("dlrm-micro")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Compile(spec.Build(), spec.Input(1), opts())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sys.Prove(spec.Input(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Verify(proof); err != nil {
		t.Fatal(err)
	}
	outs := sys.Outputs(proof)
	if len(outs) == 0 {
		t.Fatal("no public outputs")
	}
	// The public output must match the float reference within
	// quantization error.
	g := spec.Build()
	ref, err := g.OutputsFloat(spec.Input(7))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(outs[0]-ref[0].Data[0]) > 0.1 {
		t.Fatalf("public output %.4f far from reference %.4f", outs[0], ref[0].Data[0])
	}
	if !strings.Contains(sys.Describe(), "dlrm-micro") {
		t.Fatal("describe missing model name")
	}
}

func TestModelNames(t *testing.T) {
	names := ModelNames()
	// The 8 Table-5 models plus the LSTM extra.
	if len(names) != 9 {
		t.Fatalf("expected 9 bundled models, got %d", len(names))
	}
	if names[len(names)-1] != "lstm-micro" {
		t.Fatalf("extras must come last, got %v", names)
	}
	if _, err := Model("no-such-model"); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.ScaleBits != 7 || o.LookupBits != 12 || o.MinCols != 6 || o.MaxCols != 32 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if o.Objective != MinTime {
		t.Fatal("default objective should be MinTime")
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	spec, _ := Model("mnist")
	bad := opts()
	bad.ScaleBits = 12
	bad.LookupBits = 10 // lookup <= scale is invalid
	if _, _, _, err := Optimize(spec.Build(), spec.Input(1), bad); err == nil {
		t.Fatal("expected fixed-point validation error")
	}
}

func TestLoadModelRoundTrip(t *testing.T) {
	spec, _ := Model("mnist")
	g := spec.Build()
	path := t.TempDir() + "/m.json"
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name != "mnist" {
		t.Fatal("wrong model loaded")
	}
}

func TestProofExportImport(t *testing.T) {
	spec, _ := Model("dlrm-micro")
	sys, err := Compile(spec.Build(), spec.Input(1), opts())
	if err != nil {
		t.Fatal(err)
	}
	proof, err := sys.Prove(spec.Input(9))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sys.ExportProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sys.ImportProof(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Verify(back); err != nil {
		t.Fatalf("imported proof rejected: %v", err)
	}
	// Corrupt transport must error or fail verification, never panic.
	if _, err := sys.ImportProof(data[:10]); err == nil {
		t.Fatal("accepted truncated export")
	}
}

// TestProofTransferAcrossSystems: a proof produced by one compiled System
// must verify under an independently compiled System for the same model and
// options (deterministic SRS, weights, and layout) — the deployment story
// where prover and verifier run in different processes.
func TestProofTransferAcrossSystems(t *testing.T) {
	spec, _ := Model("dlrm-micro")
	sysA, err := Compile(spec.Build(), spec.Input(1), opts())
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := Compile(spec.Build(), spec.Input(1), opts())
	if err != nil {
		t.Fatal(err)
	}
	if string(sysA.ModelCommitment()) != string(sysB.ModelCommitment()) {
		t.Fatal("independent compilations disagree on the model commitment")
	}
	proof, err := sysA.Prove(spec.Input(5))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sysA.ExportProof(proof)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := sysB.ImportProof(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := sysB.Verify(imported); err != nil {
		t.Fatalf("cross-system verification failed: %v", err)
	}
}

// TestDefaultCalibrationPicksPinnedPlan: without a calibration or a
// calibration file the optimizer prices at the static calibration, so it
// picks the mnist plan the benchmark pins (core's pinnedChoices) on both
// backends, on any machine, without measuring anything.
func TestDefaultCalibrationPicksPinnedPlan(t *testing.T) {
	spec, err := Model("mnist")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []Backend{KZG, IPA} {
		p, _, _, err := Optimize(spec.Build(), spec.Input(1), Options{Backend: backend, ScaleBits: 6, LookupBits: 10, MaxCols: 24})
		if err != nil {
			t.Fatal(err)
		}
		if p.Config.NumCols != 8 || p.K != 11 || p.Config.Dot != gadgets.DotBias || !p.Config.UseConstDot {
			t.Errorf("%v: optimizer chose %d columns at 2^%d (dot %s, const %v), pinned 8 at 2^11 (bias, const)",
				backend, p.Config.NumCols, p.K, p.Config.Dot, p.Config.UseConstDot)
		}
	}
}
