package model

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/tensor"
	"repro/internal/zkerrors"
)

// fuzzRunElems bounds the input elements of a graph FuzzModelLoad runs, so
// a short fuzz pass spends its time on shapes rather than on arithmetic.
const fuzzRunElems = 1 << 12

// FuzzModelLoad feeds arbitrary bytes to the model-file parser. A model
// specification is attacker-controlled input; the parser must never panic,
// and every rejection must wrap ErrMalformedModel so callers can
// distinguish a bad file from an internal failure. A graph Parse accepts
// must also run: the float reference and a dry circuit build on an all-zero
// input (ids 0) must not panic, and a float error must wrap
// ErrMalformedModel too.
func FuzzModelLoad(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"name":"x","inputs":[{"name":"in","shape":[2,2],"kind":"float"}],` +
		`"weights":{"w":{"shape":[2],"data":[1,2]}},` +
		`"nodes":[{"op":"relu","inputs":["in"],"output":"out"}],"outputs":["out"]}`))
	// A real bundled model, so the fuzzer starts from a rich accepted input.
	if spec, err := Get("mnist"); err == nil {
		if b, err := json.Marshal(spec.Build()); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Parse(data)
		if err != nil {
			if !errors.Is(err, zkerrors.ErrMalformedModel) {
				t.Fatalf("parse error does not wrap ErrMalformedModel: %v", err)
			}
			return
		}
		// Accepted graphs must survive re-validation (Parse must not hand
		// back a graph that its own checker rejects).
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph fails Validate: %v", err)
		}
		elems := 0
		for _, spec := range g.Inputs {
			if elems += tensor.NumElems(spec.Shape); elems > fuzzRunElems {
				return
			}
		}
		in, acts := NewInput(), false
		for _, spec := range g.Inputs {
			n := tensor.NumElems(spec.Shape)
			switch spec.Kind {
			case IDInput:
				in.IDs[spec.Name] = make([]int, n)
			case ActInput:
				in.Acts[spec.Name], acts = make([]int64, n), true
			default:
				in.Floats[spec.Name] = make([]float64, n)
			}
		}
		// Float execution refuses act inputs (they belong to a chunk of a
		// sharded graph): that is no malformed model.
		if _, err := g.RunFloat(in); err != nil && !acts && !errors.Is(err, zkerrors.ErrMalformedModel) {
			t.Fatalf("RunFloat error does not wrap ErrMalformedModel: %v", err)
		}
		cfg := gadgets.DefaultConfig(16, fixedpoint.Params{ScaleBits: 6, LookupBits: 10})
		_, _ = g.SimulateCircuit(cfg, in)
	})
}
