package zkml

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/tensor"
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

// TestMalformedModelsRejected feeds model files that are well-formed JSON
// but name impossible layers. Each must be refused with an error, by
// model.Parse as ErrMalformedModel or else by Compile (and, where float is
// set, by RunFloat too), and none may panic. Either way the error wraps
// ErrMalformedModel. The ids input holds zeros unless ids names the case.
func TestMalformedModelsRejected(t *testing.T) {
	const head = `{"name":"bad","inputs":[{"name":"x","shape":%s,"kind":"float"},{"name":"ids","shape":[2],"kind":"ids"}],` +
		`"weights":{"k":{"shape":[3,3,1,2],"data":[%s]},"w":{"shape":[4,5],"data":[%s]},"d":{"shape":[2,2,1],"data":[0,0,0,0]},` +
		`"e":{"shape":[3,2],"data":[0,0,0,0,0,0]},"g":{"shape":[5],"data":[0,0,0,0,0]}},` +
		`"outputs":[%s],"nodes":[%s]}`
	zeros := func(n int) string { return strings.TrimSuffix(strings.Repeat("0,", n), ",") }
	fileOut := func(shape, out, nodes string) string {
		return fmt.Sprintf(head, shape, zeros(18), zeros(20), out, nodes)
	}
	file := func(shape, nodes string) string { return fileOut(shape, `"y"`, nodes) }
	cases := []struct {
		name, file string
		float      bool // RunFloat must fail too
	}{
		{"add with one input", file("[1,4]", `{"op":"add","inputs":["x"],"output":"y"}`), false},
		{"relu with no input", file("[1,4]", `{"op":"relu","inputs":[],"output":"y"}`), false},
		{"fc without weight", file("[1,5]", `{"op":"fc","inputs":["x"],"output":"y"}`), false},
		{"conv2d stride 0", file("[4,4,1]", `{"op":"conv2d","inputs":["x"],"output":"y","weight":"k","pad":"valid"}`), false},
		{"conv2d without pad", file("[4,4,1]", `{"op":"conv2d","inputs":["x"],"output":"y","weight":"k","stride":1}`), false},
		{"max_pool stride 0", file("[4,4,1]", `{"op":"max_pool","inputs":["x"],"output":"y","pool_k":2}`), false},
		{"avg_pool pool_k 0", file("[4,4,1]", `{"op":"avg_pool","inputs":["x"],"output":"y","stride":1}`), false},
		{"fc weight mismatch", file("[1,3]", `{"op":"fc","inputs":["x"],"output":"y","weight":"w"}`), true},
		{"add operands do not broadcast", file("[2,3]", `{"op":"reduce_sum","inputs":["x"],"output":"z"},`+
			`{"op":"add","inputs":["x","z"],"output":"y"}`), true},
		{"add operands of one size, transposed", file("[2,3]", `{"op":"transpose","inputs":["x"],"output":"t","perm":[1,0]},`+
			`{"op":"add","inputs":["x","t"],"output":"y"}`), true},
		{"add [1,6] operand into [6]", file("[6]", `{"op":"reshape","inputs":["x"],"output":"r","shape":[1,6]},`+
			`{"op":"add","inputs":["x","r"],"output":"y"}`), true},
		{"embed id past the table", file("[1,4]", `{"op":"embed","inputs":["ids"],"output":"y","weight":"e"}`), true},
		{"layer_norm gamma too long", file("[2,3]", `{"op":"layer_norm","inputs":["x"],"output":"y","weight":"g"}`), true},
		{"reshape 6 to 8", file("[2,3]", `{"op":"reshape","inputs":["x"],"output":"y","shape":[4,2]}`), true},
		{"reshape inferred", file("[2,3]", `{"op":"reshape","inputs":["x"],"output":"y","shape":[-1,5]}`), true},
		{"transpose repeated axis", file("[2,3]", `{"op":"transpose","inputs":["x"],"output":"y","perm":[0,0]}`), true},
		{"transpose short perm", file("[2,3]", `{"op":"transpose","inputs":["x"],"output":"y","perm":[0]}`), true},
		{"slice past the end", file("[2,3]", `{"op":"slice","inputs":["x"],"output":"y","starts":[0,0],"ends":[5,5]}`), true},
		{"split_last parts 0", file("[2,4]", `{"op":"split_last","inputs":["x"],"output":"y"}`), true},
		{"split_last axis past parts", file("[2,4]", `{"op":"split_last","inputs":["x"],"output":"y","parts":2,"axis":2}`), true},
		{"concat shape mismatch", file("[2,3]", `{"op":"transpose","inputs":["x"],"output":"t"},`+
			`{"op":"concat","inputs":["x","t"],"output":"y"}`), true},
		{"pad_zero rank mismatch", file("[2,3]", `{"op":"pad_zero","inputs":["x"],"output":"y","starts":[1],"ends":[1]}`), true},
		{"conv2d rank 2 input", file("[4,4]", `{"op":"conv2d","inputs":["x"],"output":"y","weight":"k","stride":1,"pad":"valid"}`), true},
		{"depthwise_conv2d rank 2 input", file("[4,4]", `{"op":"depthwise_conv2d","inputs":["x"],"output":"y","weight":"d","stride":1,"pad":"valid"}`), true},
		{"max_pool rank 2 input", file("[4,4]", `{"op":"max_pool","inputs":["x"],"output":"y","pool_k":2,"stride":2}`), true},
		{"global_avg_pool rank 2 input", file("[4,4]", `{"op":"global_avg_pool","inputs":["x"],"output":"y"}`), true},
		{"conv2d rank 2 kernel", file("[4,4,1]", `{"op":"conv2d","inputs":["x"],"output":"y","weight":"w","stride":1,"pad":"valid"}`), true},
		{"conv2d kernel taller than input", file("[2,4,1]", `{"op":"conv2d","inputs":["x"],"output":"y","weight":"k","stride":1,"pad":"valid"}`), true},
		{"conv2d kernel wider than input", file("[4,2,1]", `{"op":"conv2d","inputs":["x"],"output":"y","weight":"k","stride":1,"pad":"valid"}`), true},
		{"depthwise_conv2d kernel larger than input", file("[1,4,1]", `{"op":"depthwise_conv2d","inputs":["x"],"output":"y","weight":"d","stride":1,"pad":"valid"}`), true},
		{"max_pool window larger than input", file("[2,2,1]", `{"op":"max_pool","inputs":["x"],"output":"y","pool_k":3,"stride":1}`), true},
		{"avg_pool window wider than input", file("[4,2,1]", `{"op":"avg_pool","inputs":["x"],"output":"y","pool_k":3,"stride":1}`), true},
		{"relu reads ids", file("[1,4]", `{"op":"relu","inputs":["ids"],"output":"y"}`), true},
		{"output names ids", fileOut("[1,4]", `"ids"`, `{"op":"relu","inputs":["x"],"output":"y"}`), true},
	}
	ids := map[string][]int{"embed id past the table": {7, 0}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := model.Parse([]byte(c.file))
			if err != nil {
				if !errors.Is(err, ErrMalformedModel) {
					t.Fatalf("parse error does not wrap ErrMalformedModel: %v", err)
				}
				return
			}
			in := model.NewInput()
			for _, spec := range g.Inputs {
				if spec.Kind == model.IDInput {
					in.IDs[spec.Name] = make([]int, tensor.NumElems(spec.Shape))
					copy(in.IDs[spec.Name], ids[c.name])
				} else {
					in.Floats[spec.Name] = make([]float64, tensor.NumElems(spec.Shape))
				}
			}
			if _, err := Compile(g, in, opts()); err == nil {
				t.Fatal("Compile accepted a malformed model")
			} else if !errors.Is(err, ErrMalformedModel) {
				t.Fatalf("Compile error does not wrap ErrMalformedModel: %v", err)
			}
			if _, err := g.RunFloat(in); c.float && err == nil {
				t.Fatal("RunFloat accepted a malformed model")
			} else if c.float && !errors.Is(err, ErrMalformedModel) {
				t.Fatalf("RunFloat error does not wrap ErrMalformedModel: %v", err)
			}
		})
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
