// Package model defines ZKML's model specification format — a graph of
// tensor operations with named weights, the JSON analogue of the paper's
// tflite input format — together with a float reference interpreter, the
// circuit executor that lowers a graph onto the gadget builder, and
// generators for architecturally faithful micro versions of the paper's
// eight evaluation models (Table 5).
package model

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/fsio"
	"repro/internal/tensor"
	"repro/internal/zkerrors"
)

// MaxTensorElems bounds any single tensor declared by a model file (inputs,
// weights, reshape targets). Untrusted specifications cannot force
// allocations past this, and the overflow-safe check in tensor.CheckShape
// rejects shapes whose element product wraps around.
const MaxTensorElems = 1 << 26

// errModel returns a context-wrapped zkerrors.ErrMalformedModel.
func errModel(format string, args ...any) error {
	return fmt.Errorf("model: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedModel)
}

// InputKind distinguishes dense float inputs from integer id inputs
// (embedding lookups) and committed activation inputs (chunk boundaries in a
// sharded plan).
type InputKind string

// Input kinds.
const (
	FloatInput InputKind = "float"
	IDInput    InputKind = "ids"
	// ActInput is an already-quantized activation tensor entering a chunk
	// of a sharded plan. Its values are placed verbatim (no quantization)
	// and immediately exposed as committed public values, so the verifier
	// can bind them to the producing chunk's public outputs.
	ActInput InputKind = "act"
)

// InputSpec declares a model input.
type InputSpec struct {
	Name  string    `json:"name"`
	Shape []int     `json:"shape"`
	Kind  InputKind `json:"kind"`
}

// Node is one operation in the graph. The op determines which fields are
// meaningful.
type Node struct {
	Op     string   `json:"op"`
	Inputs []string `json:"inputs"`
	Output string   `json:"output"`

	Weight  string  `json:"weight,omitempty"`  // weight tensor name
	Weight2 string  `json:"weight2,omitempty"` // second weight (lstm recurrent)
	Bias    string  `json:"bias,omitempty"`    // bias tensor name
	Stride  int     `json:"stride,omitempty"`
	Pad     string  `json:"pad,omitempty"` // "same" | "valid"
	PoolK   int     `json:"pool_k,omitempty"`
	Shape   []int   `json:"shape,omitempty"` // reshape target
	Perm    []int   `json:"perm,omitempty"`  // transpose permutation
	Axis    int     `json:"axis,omitempty"`  // concat/split axis
	Starts  []int   `json:"starts,omitempty"`
	Ends    []int   `json:"ends,omitempty"`
	Scale   float64 `json:"scale,omitempty"` // scalar multiply constant
	Parts   int     `json:"parts,omitempty"` // split count
}

// Weight is a named constant tensor.
type Weight struct {
	Shape []int     `json:"shape"`
	Data  []float64 `json:"data"`
}

// Graph is a complete model specification.
type Graph struct {
	Name    string            `json:"name"`
	Inputs  []InputSpec       `json:"inputs"`
	Weights map[string]Weight `json:"weights"`
	Nodes   []Node            `json:"nodes"`
	Outputs []string          `json:"outputs"`
}

// Validate checks graph consistency: every node input must be produced by a
// prior node, a graph input, or a weight; outputs must exist. It also
// treats the graph as untrusted input (a model file is attacker-controlled;
// see DESIGN.md §9): weight data must match its declared shape, all shapes
// must be non-negative and bounded by MaxTensorElems, every op must be in
// the catalog, and each node must meet its op's rules (input count,
// required weights and their rank, conv stride and padding, pool window and
// stride). Only ops that take ids read an ids input, they read nothing
// else, and no output names one. The rest is checked where the graph runs,
// by both executors alike, before a node's op: operand ranks, shape-op
// fields, broadcasts, and each op entry's fit of the operands to each other
// and to the node's weights (an embed's ids must index its table, a
// valid-padded convolution kernel and a pool window must fit inside their
// input). All failures wrap zkerrors.ErrMalformedModel.
func (g *Graph) Validate() error {
	avail, ids := map[string]bool{}, map[string]bool{}
	for i, in := range g.Inputs {
		if in.Name == "" {
			return errModel("%s: input %d has no name", g.Name, i)
		}
		if avail[in.Name] {
			return errModel("%s: duplicate input %q", g.Name, in.Name)
		}
		if _, err := tensor.CheckShape(in.Shape, MaxTensorElems); err != nil {
			return errModel("%s: input %q: %v", g.Name, in.Name, err)
		}
		if in.Kind != FloatInput && in.Kind != IDInput && in.Kind != ActInput {
			return errModel("%s: input %q has unknown kind %q", g.Name, in.Name, in.Kind)
		}
		avail[in.Name] = true
		ids[in.Name] = in.Kind == IDInput
	}
	for name, w := range g.Weights {
		elems, err := tensor.CheckShape(w.Shape, MaxTensorElems)
		if err != nil {
			return errModel("%s: weight %q: %v", g.Name, name, err)
		}
		if elems != len(w.Data) {
			return errModel("%s: weight %q has %d values for shape %v (want %d)",
				g.Name, name, len(w.Data), w.Shape, elems)
		}
	}
	for i, n := range g.Nodes {
		o, ok := ops[n.Op]
		if !ok {
			return errModel("%s: node %d has unknown op %q", g.Name, i, n.Op)
		}
		if !o.takes(len(n.Inputs)) {
			return errModel("%s: node %d (%s) has %d inputs", g.Name, i, n.Op, len(n.Inputs))
		}
		if o.weight && n.Weight == "" || o.weight2 && n.Weight2 == "" {
			return errModel("%s: node %d (%s) lacks a required weight", g.Name, i, n.Op)
		}
		if o.conv && (n.Stride < 1 || n.Pad != "same" && n.Pad != "valid") {
			return errModel("%s: node %d (%s) needs stride >= 1 and pad same or valid", g.Name, i, n.Op)
		}
		if o.pool && (n.Stride < 1 || n.PoolK < 1) {
			return errModel("%s: node %d (%s) needs pool_k >= 1 and stride >= 1", g.Name, i, n.Op)
		}
		for _, in := range n.Inputs {
			if !avail[in] {
				return errModel("%s: node %d (%s) consumes undefined tensor %q", g.Name, i, n.Op, in)
			}
			if ids[in] != o.ids {
				return errModel("%s: node %d (%s) reads %q: only ops that take ids read an ids input, and they read nothing else", g.Name, i, n.Op, in)
			}
		}
		for j, name := range []string{n.Weight, n.Weight2, n.Bias} {
			w, ok := g.Weights[name]
			if name != "" && !ok {
				return errModel("%s: node %d references missing weight %q", g.Name, i, name)
			}
			if o.weightRank > 0 && (j == 0 || j == 1 && o.weight2) && len(w.Shape) != o.weightRank {
				return errModel("%s: node %d (%s) needs rank-%d weights", g.Name, i, n.Op, o.weightRank)
			}
		}
		if n.Stride < 0 || n.PoolK < 0 || n.Parts < 0 || n.Axis < 0 {
			return errModel("%s: node %d (%s) has a negative numeric field", g.Name, i, n.Op)
		}
		if len(n.Shape) > 0 {
			// Reshape targets allow one inferred (-1) dimension.
			inferred := 0
			checked := make([]int, 0, len(n.Shape))
			for _, d := range n.Shape {
				if d == -1 {
					inferred++
					continue
				}
				checked = append(checked, d)
			}
			if inferred > 1 {
				return errModel("%s: node %d (%s) has %d inferred dimensions", g.Name, i, n.Op, inferred)
			}
			if _, err := tensor.CheckShape(checked, MaxTensorElems); err != nil {
				return errModel("%s: node %d (%s): %v", g.Name, i, n.Op, err)
			}
		}
		if len(n.Starts) != len(n.Ends) {
			return errModel("%s: node %d (%s) has %d starts but %d ends", g.Name, i, n.Op, len(n.Starts), len(n.Ends))
		}
		if n.Output == "" {
			return errModel("%s: node %d has no output", g.Name, i)
		}
		avail[n.Output] = true
	}
	for _, out := range g.Outputs {
		if !avail[out] || ids[out] {
			return errModel("%s: output %q never produced (an ids input is no output)", g.Name, out)
		}
	}
	return nil
}

// Params returns the total number of weight parameters (Table 5).
func (g *Graph) Params() int {
	n := 0
	for _, w := range g.Weights {
		n += len(w.Data)
	}
	return n
}

// Save writes the graph as JSON.
func (g *Graph) Save(path string) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return fsio.WriteFileAtomic(path, b, 0o644)
}

// Parse decodes and validates a graph from untrusted JSON bytes. Any
// failure wraps zkerrors.ErrMalformedModel; arbitrary bytes never panic.
func Parse(data []byte) (*Graph, error) {
	var g Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, errModel("decoding JSON: %v", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// Load reads a graph from a JSON file. The file content is untrusted; see
// Parse.
func Load(path string) (*Graph, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := Parse(b)
	if err != nil {
		return nil, fmt.Errorf("model: parsing %s: %w", path, err)
	}
	return g, nil
}

// Input is a concrete inference input: dense values for float inputs, ids
// for embedding inputs, and quantized fixed-point values for activation
// inputs (chunk boundaries in a sharded plan).
type Input struct {
	Floats map[string][]float64
	IDs    map[string][]int
	Acts   map[string][]int64
}

// NewInput allocates an empty input.
func NewInput() *Input {
	return &Input{Floats: map[string][]float64{}, IDs: map[string][]int{}, Acts: map[string][]int64{}}
}
