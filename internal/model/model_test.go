package model

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/layers"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

func testParams() fixedpoint.Params {
	return fixedpoint.Params{ScaleBits: 9, LookupBits: 13}
}

func TestAllModelsValidate(t *testing.T) {
	for _, spec := range Registry {
		g := spec.Build()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if g.Params() == 0 {
			t.Errorf("%s: no parameters", spec.Name)
		}
	}
}

func TestAllModelsRunFloat(t *testing.T) {
	for _, spec := range Registry {
		g := spec.Build()
		outs, err := g.OutputsFloat(spec.Input(1))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, o := range outs {
			for _, v := range o.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: non-finite output", spec.Name)
				}
			}
		}
	}
}

// TestAllModelsFlopsAndParams pins the Table 5 flop count of every
// evaluation model; the same per-node counts place Partition's cuts.
func TestAllModelsFlopsAndParams(t *testing.T) {
	want := map[string]int64{
		"gpt2-micro": 7776, "diffusion-micro": 13060, "twitter-micro": 5913, "dlrm-micro": 613,
		"mobilenet-micro": 82642, "resnet-micro": 326866, "vgg-micro": 145106, "mnist": 15946,
	}
	for _, spec := range Registry {
		g := spec.Build()
		fl, err := g.Flops(spec.Input(1))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if fl != want[spec.Name] {
			t.Errorf("%s: flops = %d, want %d", spec.Name, fl, want[spec.Name])
		}
	}
}

// TestCircuitMatchesFloat checks the fixed-point circuit execution tracks
// the FP32 reference within quantization error on every model — the
// property underlying Table 8.
func TestCircuitMatchesFloat(t *testing.T) {
	for _, spec := range Registry {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Build()
			in := spec.Input(2)
			floatOuts, err := g.OutputsFloat(in)
			if err != nil {
				t.Fatal(err)
			}
			cfg := gadgets.DefaultConfig(24, testParams())
			b := gadgets.NewBuilder(cfg)
			circOuts, err := g.RunCircuit(b, in)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}
			for oi, fo := range floatOuts {
				co := circOuts[oi]
				if co.Len() != fo.Len() {
					t.Fatalf("output %d: length %d vs %d", oi, co.Len(), fo.Len())
				}
				for i := range fo.Data {
					got := co.Data[i].Float()
					want := fo.Data[i]
					if math.Abs(got-want) > 0.15 {
						t.Errorf("output %d[%d]: circuit %.4f vs float %.4f", oi, i, got, want)
					}
				}
			}
		})
	}
}

// TestMNISTEndToEndProof proves and verifies a full model inference.
func TestMNISTEndToEndProof(t *testing.T) {
	spec, err := Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build()
	in := spec.Input(3)
	cfg := gadgets.DefaultConfig(20, fixedpoint.Params{ScaleBits: 6, LookupBits: 11})
	b, outs, err := g.BuildCircuit(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Len() != 10 {
		t.Fatalf("unexpected output shape %v", outs[0].Shape)
	}
	art, err := b.Finalize(b.MinN())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mnist circuit: %d rows used, N=%d, %d fixed cols, %d lookups",
		art.UsedRows, art.N, art.CS.NumFixed, len(art.CS.Lookups))
	pk, vk, err := plonkish.Setup(art.CS, art.N, art.Fixed, pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonkish.Prove(pk, art.Instance, art.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonkish.Verify(vk, art.Instance, proof); err != nil {
		t.Fatal(err)
	}
	// Wrong public output must be rejected.
	bad := art.Instance
	var tweak = bad[0][0]
	tweak.SetUint64(123456)
	bad[0][0] = tweak
	if err := plonkish.Verify(vk, bad, proof); err == nil {
		t.Fatal("verifier accepted tampered model output")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := MNIST()
	path := filepath.Join(t.TempDir(), "mnist.json")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name != g.Name || len(g2.Nodes) != len(g.Nodes) || g2.Params() != g.Params() {
		t.Fatal("round trip mismatch")
	}
	// Loaded graph must execute identically.
	in := imageInput(12, 12, 1)(7)
	o1, err := g.OutputsFloat(in)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := g2.OutputsFloat(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o1[0].Data {
		if o1[0].Data[i] != o2[0].Data[i] {
			t.Fatal("loaded graph output differs")
		}
	}
}

func TestValidateCatchesBrokenGraphs(t *testing.T) {
	g := newGraph("bad", InputSpec{Name: "x", Shape: []int{2}, Kind: FloatInput})
	g.node(Node{Op: "relu", Inputs: []string{"missing"}, Output: "y"})
	g.Outputs = []string{"y"}
	if err := g.Validate(); err == nil {
		t.Fatal("accepted graph with undefined input tensor")
	}
	g2 := newGraph("bad2", InputSpec{Name: "x", Shape: []int{2}, Kind: FloatInput})
	g2.node(Node{Op: "fc", Inputs: []string{"x"}, Output: "y", Weight: "nope"})
	g2.Outputs = []string{"y"}
	if err := g2.Validate(); err == nil {
		t.Fatal("accepted graph with missing weight")
	}
}

func TestDeterministicWeights(t *testing.T) {
	a, b := MNIST(), MNIST()
	for name, w := range a.Weights {
		w2 := b.Weights[name]
		for i := range w.Data {
			if w.Data[i] != w2.Data[i] {
				t.Fatalf("weight %s not deterministic", name)
			}
		}
	}
}

// TestTwoInputsSameCircuitShape: the circuit layout must depend only on the
// model, never on input values (fixed-function compilation, paper §4).
func TestTwoInputsSameCircuitShape(t *testing.T) {
	spec, _ := Get("twitter-micro")
	g := spec.Build()
	cfg := gadgets.DefaultConfig(16, testParams())
	b1 := gadgets.NewBuilder(cfg)
	if _, err := g.RunCircuit(b1, spec.Input(1)); err != nil {
		t.Fatal(err)
	}
	b2 := gadgets.NewBuilder(cfg)
	if _, err := g.RunCircuit(b2, spec.Input(99)); err != nil {
		t.Fatal(err)
	}
	if b1.Rows() != b2.Rows() {
		t.Fatalf("layout depends on input values: %d vs %d rows", b1.Rows(), b2.Rows())
	}
	s1, s2 := b1.Stats(), b2.Stats()
	for k, v := range s1.Ops {
		if s2.Ops[k] != v {
			t.Fatalf("op counts differ for %s: %d vs %d", k, v, s2.Ops[k])
		}
	}
	if s1.Copies != s2.Copies {
		t.Fatalf("copy counts differ: %d vs %d", s1.Copies, s2.Copies)
	}
}

func TestOpCatalogSize(t *testing.T) {
	// The paper reports 43 supported layers; our catalog must be in that
	// class (>= 40).
	if len(ops) < 40 {
		t.Fatalf("op catalog has %d entries, want >= 40", len(ops))
	}
}

var _ = layers.Values // keep the import for helpers used in other tests

// TestLSTMCircuitMatchesFloat exercises the step-unrolled LSTM end to end.
func TestLSTMCircuitMatchesFloat(t *testing.T) {
	spec, err := Get("lstm-micro")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	in := spec.Input(5)
	ref, err := g.OutputsFloat(in)
	if err != nil {
		t.Fatal(err)
	}
	b := gadgets.NewBuilder(gadgets.DefaultConfig(16, testParams()))
	outs, err := g.RunCircuit(b, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref[0].Data {
		got := outs[0].Data[i].Float()
		if math.Abs(got-ref[0].Data[i]) > 0.15 {
			t.Fatalf("lstm output %d: %.4f vs %.4f", i, got, ref[0].Data[i])
		}
	}
}

// TestLSTMEndToEndProof proves an LSTM inference.
func TestLSTMEndToEndProof(t *testing.T) {
	spec, _ := Get("lstm-micro")
	g := spec.Build()
	cfg := gadgets.DefaultConfig(14, fixedpoint.Params{ScaleBits: 6, LookupBits: 10})
	b, _, err := g.BuildCircuit(cfg, spec.Input(3))
	if err != nil {
		t.Fatal(err)
	}
	art, err := b.Finalize(b.MinN())
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := plonkish.Setup(art.CS, art.N, art.Fixed, pcs.KZG)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := plonkish.Prove(pk, art.Instance, art.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := plonkish.Verify(vk, art.Instance, proof); err != nil {
		t.Fatal(err)
	}
}
