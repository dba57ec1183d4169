package model

import (
	"repro/internal/gadgets"
	"repro/internal/layers"
	"repro/internal/tensor"
)

// RunCircuit lowers the graph onto a gadget builder: weights are quantized
// to the builder's fixed-point format, every compute node emits gadget
// rows, and the declared outputs are exposed as public values. A real
// builder afterwards holds both the circuit layout and the witness for this
// input; a dry one, the layout's counts.
func (g *Graph) RunCircuit(b *gadgets.Builder, in *Input) ([]*layers.T, error) {
	env, err := walk(g, in, func(spec InputSpec) (*layers.T, error) {
		if spec.Kind == ActInput {
			// A chunk-boundary activation: values are already quantized
			// fixed-point integers from the producing chunk, placed
			// verbatim (no requantization — the chain stays exact) and
			// made public immediately so the boundary lands at a
			// deterministic prefix of the instance column, in g.Inputs
			// order, ahead of the chunk's own outputs.
			v, err := values(in.Acts, spec)
			if err != nil {
				return nil, err
			}
			t := layers.Inputs(b, tensor.FromSlice(append([]int64(nil), v...), spec.Shape...))
			layers.Outputs(b, t)
			return t, nil
		}
		v, err := values(in.Floats, spec)
		if err != nil {
			return nil, err
		}
		return layers.Inputs(b, tensor.Map(tensor.FromSlice(v, spec.Shape...), b.Config().FP.Quantize)), nil
	}, func(o op, c call, x []*layers.T) (*layers.T, error) {
		y, err := o.circuit(b, c, x)
		if err == nil {
			err = b.Err()
		}
		return y, err
	})
	if err != nil {
		return nil, err
	}
	return outputs(g, env), nil
}

// BuildCircuit runs the graph on a fresh builder and exposes all outputs as
// public values. Returns the builder (layout + witness) and the output
// tensors.
func (g *Graph) BuildCircuit(cfg gadgets.Config, in *Input) (*gadgets.Builder, []*layers.T, error) {
	return g.build(gadgets.NewBuilder(cfg), in)
}

// BuildWitness is BuildCircuit on a witness builder: the same rows, checks,
// witness and public values, without the copy constraints and coefficients
// only keygen reads. Proves synthesize through it.
func (g *Graph) BuildWitness(cfg gadgets.Config, in *Input) (*gadgets.Builder, []*layers.T, error) {
	return g.build(gadgets.NewWitnessBuilder(cfg), in)
}

// SimulateCircuit is BuildCircuit on a dry builder: the same rows, checks
// and constraint system, without storing the grid. The optimizer prices
// layouts from it.
func (g *Graph) SimulateCircuit(cfg gadgets.Config, in *Input) (*gadgets.Builder, error) {
	b, _, err := g.build(gadgets.NewDryBuilder(cfg), in)
	return b, err
}

func (g *Graph) build(b *gadgets.Builder, in *Input) (*gadgets.Builder, []*layers.T, error) {
	outs, err := g.RunCircuit(b, in)
	if err != nil {
		return nil, nil, err
	}
	for _, out := range outs {
		layers.Outputs(b, out)
	}
	if err := b.Err(); err != nil {
		return nil, nil, err
	}
	return b, outs, nil
}
