package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/layers"
	"repro/internal/tensor"
	"repro/internal/zkerrors"
)

// op is one entry of ZKML's layer catalog (the paper reports 43 supported
// layers): what Validate requires of a node, the float reference, the
// circuit lowering and the flop count. Shape operations are free; compute
// operations lower to gadgets.
type op struct {
	inputs     int  // exact input count; -1 means one or more
	weight     bool // Weight must name a weight
	weight2    bool // Weight2 must name a weight
	weightRank int  // rank of Weight, and of Weight2 if required; 0 means any
	rank       int  // rank of every operand, checked by walk; 0 means any
	conv       bool // stride ≥ 1 and pad "same" or "valid"
	pool       bool // pool_k ≥ 1 and stride ≥ 1
	ids        bool // reads one ids input (Input.IDs), and no other op may
	// fit checks that the operand shapes x fit each other and the node's
	// weights, and that an ids op's ids index its table; nil accepts any
	// operands of the right rank.
	fit func(c call, x [][]int) error

	float   func(c call, x []*FT) (*FT, error)
	circuit func(b *gadgets.Builder, c call, x []*layers.T) (*layers.T, error)
	flops   flopFn // nil means one flop per output element
}

// flopFn counts a node's operations from its Weight's shape w, its first
// operand x and its output y (Table 5 "Flops"; also Partition's cuts).
type flopFn func(n Node, w []int, x, y *FT) int64

// takes reports whether a node with k inputs meets the op's input count.
func (o op) takes(k int) bool { return k == o.inputs || o.inputs < 0 && k > 0 }

// ops is the layer catalog, keyed by Node.Op.
var ops = func() map[string]op {
	m := map[string]op{
		"conv2d": layer(op{inputs: 1, weight: true, weightRank: 4, rank: 3, conv: true, fit: channels(2, 3),
			flops: func(_ Node, w []int, _, y *FT) int64 { return 2 * int64(y.Len()) * int64(w[0]*w[1]*w[2]) }},
			func(c call, x []*FT) *FT {
				return floatConv2D(x[0], c.weight(c.Weight), c.weight(c.Bias), c.Stride, layers.Padding(c.Pad))
			},
			func(b *gadgets.Builder, c call, x []*layers.T) *layers.T {
				return layers.Conv2D(b, x[0], c.quant(b, c.Weight), c.quant(b, c.Bias), c.Stride, layers.Padding(c.Pad))
			}),
		"depthwise_conv2d": layer(op{inputs: 1, weight: true, weightRank: 3, rank: 3, conv: true, fit: channels(2, 2),
			flops: func(_ Node, w []int, _, y *FT) int64 { return 2 * int64(y.Len()) * int64(w[0]*w[1]) }},
			func(c call, x []*FT) *FT {
				return floatDWConv2D(x[0], c.weight(c.Weight), c.weight(c.Bias), c.Stride, layers.Padding(c.Pad))
			},
			func(b *gadgets.Builder, c call, x []*layers.T) *layers.T {
				return layers.DepthwiseConv2D(b, x[0], c.quant(b, c.Weight), c.quant(b, c.Bias), c.Stride, layers.Padding(c.Pad))
			}),
		"fc": layer(op{inputs: 1, weight: true, weightRank: 2, rank: 2, fit: fcFit,
			flops: func(_ Node, w []int, _, y *FT) int64 { return 2 * int64(y.Len()) * int64(w[1]) }},
			func(c call, x []*FT) *FT { return floatFC(x[0], c.weight(c.Weight), c.weight(c.Bias)) },
			func(b *gadgets.Builder, c call, x []*layers.T) *layers.T {
				return layers.FullyConnected(b, x[0], c.quant(b, c.Weight), c.quant(b, c.Bias))
			}),
		"matmul":             binary(op{rank: 2, fit: matmulFit, flops: matmulFlops}, floatMatMul, layers.MatMul),
		"batch_matmul":       binary(op{rank: 3, fit: matmulFit, flops: matmulFlops}, floatBatchMatMul, layers.BatchMatMul),
		"avg_pool":           pool(true, layers.AveragePool2D),
		"max_pool":           pool(false, layers.MaxPool2D),
		"global_avg_pool":    unary(op{rank: 3, flops: inputFlops}, floatGlobalAvgPool, layers.GlobalAveragePool),
		"add":                elementwise(func(a, b float64) float64 { return a + b }, layers.Add),
		"sub":                elementwise(func(a, b float64) float64 { return a - b }, layers.Sub),
		"mul":                elementwise(func(a, b float64) float64 { return a * b }, layers.Mul),
		"div":                elementwise(func(a, b float64) float64 { return a / b }, layers.Div),
		"squared_difference": elementwise(func(a, b float64) float64 { return (a - b) * (a - b) }, layers.SquaredDifference),
		"minimum": elementwise(math.Min, func(b *gadgets.Builder, x, y *layers.T) *layers.T {
			return zip(x, y, func(p, q *gadgets.Value) *gadgets.Value { return b.MulC(b.Max(b.MulC(p, -1), b.MulC(q, -1)), -1) })
		}),
		"maximum": elementwise(math.Max, func(b *gadgets.Builder, x, y *layers.T) *layers.T {
			return zip(x, y, func(p, q *gadgets.Value) *gadgets.Value { return b.Max(p, q) })
		}),
		"square": pointwise(func(v float64) float64 { return v * v }, (*gadgets.Builder).Square),
		"neg":    pointwise(func(v float64) float64 { return -v }, func(b *gadgets.Builder, v *gadgets.Value) *gadgets.Value { return b.MulC(v, -1) }),
		"abs":    pointwise(math.Abs, func(b *gadgets.Builder, v *gadgets.Value) *gadgets.Value { return b.Max(v, b.MulC(v, -1)) }),
		"scale": layer(op{inputs: 1},
			func(c call, x []*FT) *FT { return tensor.Map(x[0], func(v float64) float64 { return v * c.Scale }) },
			func(b *gadgets.Builder, c call, x []*layers.T) *layers.T {
				q := b.Config().FP.Quantize(c.Scale)
				return tensor.Map(x[0], func(v *gadgets.Value) *gadgets.Value {
					return b.Rescale(b.DotRaw([]*gadgets.Value{v}, nil, []int64{q}, nil))
				})
			}),
		"reduce_sum": unary(op{fit: lastAxis, flops: inputFlops}, func(x *FT) *FT { return floatReduce(x, sum) }, layers.ReduceSum),
		"reduce_mean": unary(op{fit: lastAxis, flops: inputFlops}, func(x *FT) *FT {
			return floatReduce(x, func(vs []float64) float64 { return sum(vs) / float64(len(vs)) })
		}, layers.ReduceMean),
		"reduce_max": unary(op{fit: lastAxis, flops: inputFlops}, func(x *FT) *FT { return floatReduce(x, slices.Max) }, layers.ReduceMax),

		"softmax": unary(op{fit: lastAxis, flops: perOutput(5)}, floatSoftmax, layers.Softmax),
		"layer_norm": layer(op{inputs: 1, fit: lastAxis, flops: perOutput(8)},
			func(c call, x []*FT) *FT { return floatLayerNorm(x[0], c.weight(c.Weight), c.weight(c.Bias)) },
			func(b *gadgets.Builder, c call, x []*layers.T) *layers.T {
				return layers.LayerNorm(b, x[0], c.quant(b, c.Weight), c.quant(b, c.Bias))
			}),
		"rms_norm": layer(op{inputs: 1, fit: lastAxis, flops: perOutput(8)},
			func(c call, x []*FT) *FT { return floatRMSNorm(x[0], c.weight(c.Weight)) },
			func(b *gadgets.Builder, c call, x []*layers.T) *layers.T {
				return layers.RMSNorm(b, x[0], c.quant(b, c.Weight))
			}),
		"lstm": layer(op{inputs: 1, weight: true, weight2: true, weightRank: 2, rank: 2, fit: lstmFit},
			func(c call, x []*FT) *FT {
				return floatLSTM(x[0], c.weight(c.Weight), c.weight(c.Weight2), c.weight(c.Bias))
			},
			func(b *gadgets.Builder, c call, x []*layers.T) *layers.T {
				return layers.LSTM(b, x[0], c.quant(b, c.Weight), c.quant(b, c.Weight2), c.quant(b, c.Bias))
			}),
		"embed": layer(op{inputs: 1, weight: true, weightRank: 2, ids: true, fit: embedFit, flops: noFlops},
			func(c call, _ []*FT) *FT { return floatEmbed(c.weight(c.Weight), c.in.IDs[c.Inputs[0]]) },
			func(b *gadgets.Builder, c call, _ []*layers.T) *layers.T {
				return layers.Embed(b, c.Weight, c.quant(b, c.Weight), c.in.IDs[c.Inputs[0]])
			}),
		"concat": free(-1),
	}
	// Pointwise nonlinearities, each a lookup table.
	for _, name := range []string{"relu", "relu6", "leaky_relu", "elu", "gelu", "sigmoid", "tanh",
		"softplus", "silu", "exp", "sqrt", "rsqrt", "erf"} {
		nl := fixedpoint.Nonlinearity(name)
		m[name] = unary(op{}, func(x *FT) *FT { return tensor.Map(x, nl.Float) },
			func(b *gadgets.Builder, x *layers.T) *layers.T { return layers.Activation(b, nl, x) })
	}
	for _, name := range []string{"reshape", "flatten", "transpose", "slice", "pad_zero", "split_last",
		"identity", "expand_dims", "squeeze"} {
		m[name] = free(1)
	}
	return m
}()

// call is one node being run, with its graph and the inference input.
type call struct {
	Node
	g  *Graph
	in *Input
}

// weight materializes the named weight as a float tensor; "" names none.
func (c call) weight(name string) *FT {
	if name == "" {
		return nil
	}
	w := c.g.Weights[name]
	return tensor.FromSlice(append([]float64(nil), w.Data...), w.Shape...)
}

// quant is weight quantized to b's fixed-point format.
func (c call) quant(b *gadgets.Builder, name string) *layers.IT {
	if name == "" {
		return nil
	}
	return tensor.Map(c.weight(name), b.Config().FP.Quantize)
}

// layer completes rule with a float kernel and a circuit lowering that
// cannot fail (a lowering reports its errors on the builder).
func layer(rule op, f func(c call, x []*FT) *FT, lower func(b *gadgets.Builder, c call, x []*layers.T) *layers.T) op {
	rule.float = func(c call, x []*FT) (*FT, error) { return f(c, x), nil }
	rule.circuit = func(b *gadgets.Builder, c call, x []*layers.T) (*layers.T, error) { return lower(b, c, x), nil }
	return rule
}

// unary and binary are layers that read nothing of the node but their one
// or two operands.
func unary(rule op, f func(x *FT) *FT, lower func(b *gadgets.Builder, x *layers.T) *layers.T) op {
	rule.inputs = 1
	return layer(rule, func(_ call, x []*FT) *FT { return f(x[0]) },
		func(b *gadgets.Builder, _ call, x []*layers.T) *layers.T { return lower(b, x[0]) })
}

func binary(rule op, f func(x, y *FT) *FT, lower func(b *gadgets.Builder, x, y *layers.T) *layers.T) op {
	rule.inputs = 2
	return layer(rule, func(_ call, x []*FT) *FT { return f(x[0], x[1]) },
		func(b *gadgets.Builder, _ call, x []*layers.T) *layers.T { return lower(b, x[0], x[1]) })
}

// elementwise is a binary op applying f to each pair of elements.
func elementwise(f func(a, b float64) float64, lower func(b *gadgets.Builder, x, y *layers.T) *layers.T) op {
	return binary(op{fit: broadcasts}, func(x, y *FT) *FT { return zip(x, y, f) }, lower)
}

// pointwise is a unary op applying f, in the circuit g, to each element.
func pointwise(f func(float64) float64, g func(b *gadgets.Builder, v *gadgets.Value) *gadgets.Value) op {
	return unary(op{}, func(x *FT) *FT { return tensor.Map(x, f) }, func(b *gadgets.Builder, x *layers.T) *layers.T {
		return tensor.Map(x, func(v *gadgets.Value) *gadgets.Value { return g(b, v) })
	})
}

// pool is avg_pool (avg) or max_pool.
func pool(avg bool, lower func(b *gadgets.Builder, x *layers.T, k, stride int) *layers.T) op {
	return layer(op{inputs: 1, rank: 3, pool: true, fit: window,
		flops: func(n Node, _ []int, _, y *FT) int64 { return int64(y.Len()) * int64(n.PoolK*n.PoolK) }},
		func(c call, x []*FT) *FT { return floatPool(x[0], c.PoolK, c.Stride, avg) },
		func(b *gadgets.Builder, c call, x []*layers.T) *layers.T {
			return lower(b, x[0], c.PoolK, c.Stride)
		})
}

// free is a shape op: no rows and no flops, run by shape for both executors.
func free(inputs int) op {
	return op{inputs: inputs, flops: noFlops,
		float: func(c call, x []*FT) (*FT, error) { return shape(c.Node, x, func() float64 { return 0 }) },
		circuit: func(b *gadgets.Builder, c call, x []*layers.T) (*layers.T, error) {
			return shape(c.Node, x, func() *gadgets.Value { return b.Constant(0) })
		}}
}

func noFlops(Node, []int, *FT, *FT) int64 { return 0 }

func inputFlops(_ Node, _ []int, x, _ *FT) int64 { return int64(x.Len()) }

func matmulFlops(_ Node, _ []int, x, y *FT) int64 {
	return 2 * int64(y.Len()) * int64(x.Shape[x.Rank()-1])
}

func perOutput(k int64) flopFn {
	return func(_ Node, _ []int, _, y *FT) int64 { return k * int64(y.Len()) }
}

// zip applies f elementwise, broadcasting y to x's shape when their sizes
// differ.
func zip[E any](x, y *tensor.Tensor[E], f func(a, b E) E) *tensor.Tensor[E] {
	if y.Len() != x.Len() {
		y = y.BroadcastTo(x.Shape...)
	}
	return tensor.Zip(x, y, f)
}

// misfit is an error of operands that do not fit: the model is malformed.
func misfit(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), zkerrors.ErrMalformedModel)
}

// broadcasts is the fit of an elementwise op: its second operand has the
// first's size (zip then pairs them in order) or broadcasts to its shape.
func broadcasts(_ call, x [][]int) error {
	if tensor.NumElems(x[0]) != tensor.NumElems(x[1]) && !tensor.Broadcasts(x[1], x[0]) {
		return misfit("cannot broadcast %v to %v", x[1], x[0])
	}
	return nil
}

// sized checks that the named weight, unless "", has n elements.
func (c call) sized(name string, n int) error {
	if w, ok := c.g.Weights[name]; ok && name != "" && len(w.Data) != n {
		return misfit("weight %q has %d elements, want %d", name, len(w.Data), n)
	}
	return nil
}

// channels is the fit of a convolution: axis in of its kernel matches the
// input's channels, the bias has one element per kernel axis out, and under
// valid padding the kernel [KH, KW, …] fits inside the input [H, W, C].
func channels(in, out int) func(c call, x [][]int) error {
	return func(c call, x [][]int) error {
		k := c.g.Weights[c.Weight].Shape
		if x[0][2] != k[in] {
			return misfit("input %v does not fit kernel %v", x[0], k)
		}
		if layers.Padding(c.Pad) == layers.Valid && (k[0] > x[0][0] || k[1] > x[0][1]) {
			return misfit("kernel %v exceeds input %v under valid padding", k, x[0])
		}
		return c.sized(c.Bias, k[out])
	}
}

// window is the fit of a pool: the PoolK×PoolK window fits inside the input
// [H, W, C].
func window(c call, x [][]int) error {
	if c.PoolK > x[0][0] || c.PoolK > x[0][1] {
		return misfit("pool window %d exceeds input %v", c.PoolK, x[0])
	}
	return nil
}

// fcFit: input [M,K] by weight [N,K], bias [N].
func fcFit(c call, x [][]int) error {
	w := c.g.Weights[c.Weight].Shape
	if x[0][1] != w[1] {
		return misfit("input %v does not fit weight %v", x[0], w)
	}
	return c.sized(c.Bias, w[0])
}

// matmulFit: [..., M, K] by [..., K, N] over the same batch.
func matmulFit(_ call, x [][]int) error {
	a, w, r := x[0], x[1], len(x[0])
	if a[r-1] != w[r-2] || r == 3 && a[0] != w[0] {
		return misfit("cannot multiply %v by %v", a, w)
	}
	return nil
}

// lastAxis is the fit of an op over its operand's last axis: the operand
// has one, and a norm's gamma (Weight) and beta (Bias) have one element per
// entry of it.
func lastAxis(c call, x [][]int) error {
	r := len(x[0])
	if r == 0 {
		return misfit("a scalar has no last axis")
	}
	if err := c.sized(c.Weight, x[0][r-1]); err != nil {
		return err
	}
	return c.sized(c.Bias, x[0][r-1])
}

// lstmFit: input [T,D], input weights [4H,D], recurrent weights [4H,H] and
// bias [4H].
func lstmFit(c call, x [][]int) error {
	wx, wh := c.g.Weights[c.Weight].Shape, c.g.Weights[c.Weight2].Shape
	h4 := wx[0]
	if h4%4 != 0 || wx[1] != x[0][1] || wh[0] != h4 || wh[1] != h4/4 {
		return misfit("weights %v and %v do not fit input %v", wx, wh, x[0])
	}
	return c.sized(c.Bias, h4)
}

// embedFit: every id indexes a row of the table.
func embedFit(c call, _ [][]int) error {
	rows := c.g.Weights[c.Weight].Shape[0]
	for _, id := range c.in.IDs[c.Inputs[0]] {
		if id < 0 || id >= rows {
			return misfit("id %d outside the %d rows of table %q", id, rows, c.Weight)
		}
	}
	return nil
}

// shape runs the free shape op n on x for either executor, returning an
// error (a misfit) where the tensor package would panic. zero makes
// pad_zero's padding value and is called only there.
func shape[E any](n Node, x []*tensor.Tensor[E], zero func() E) (*tensor.Tensor[E], error) {
	t, rank := x[0], x[0].Rank()
	switch n.Op {
	case "flatten":
		return t.Flatten(), nil
	case "transpose":
		seen := make([]bool, rank)
		for _, p := range n.Perm {
			if len(n.Perm) != rank || p < 0 || p >= rank || seen[p] {
				return nil, misfit("perm %v does not permute the axes of %v", n.Perm, t.Shape)
			}
			seen[p] = true
		}
		return t.Transpose(n.Perm...), nil
	case "concat":
		for _, u := range x {
			bad := n.Axis >= rank || u.Rank() != rank
			for i := 0; !bad && i < rank; i++ {
				bad = i != n.Axis && u.Shape[i] != t.Shape[i]
			}
			if bad {
				return nil, misfit("cannot concat %v and %v on axis %d", t.Shape, u.Shape, n.Axis)
			}
		}
		return tensor.Concat(n.Axis, x...), nil
	case "slice", "pad_zero":
		bad := len(n.Starts) != rank || len(n.Ends) != rank
		padded := make([]int, rank)
		for i := 0; !bad && i < rank; i++ {
			bad = n.Starts[i] < 0 || n.Ends[i] < 0 || n.Op == "slice" && (n.Starts[i] > n.Ends[i] || n.Ends[i] > t.Shape[i])
			padded[i] = n.Starts[i] + t.Shape[i] + n.Ends[i]
		}
		if bad {
			return nil, misfit("starts %v and ends %v do not fit %v", n.Starts, n.Ends, t.Shape)
		}
		if n.Op == "slice" {
			return t.Slice(n.Starts, n.Ends), nil
		}
		if _, err := tensor.CheckShape(padded, MaxTensorElems); err != nil {
			return nil, misfit("%v", err)
		}
		return t.Pad(n.Starts, n.Ends, zero()), nil
	case "split_last":
		if rank == 0 || n.Parts < 1 || n.Axis >= n.Parts || t.Shape[rank-1]%n.Parts != 0 {
			return nil, misfit("cannot take part %d of %d from the last axis of %v", n.Axis, n.Parts, t.Shape)
		}
		return t.Split(rank-1, n.Parts)[n.Axis], nil
	}
	// reshape, and identity, expand_dims and squeeze, whose shape is optional.
	if len(n.Shape) == 0 && n.Op != "reshape" {
		return t, nil
	}
	known, inferred := 1, false
	for _, d := range n.Shape {
		if d == -1 && !inferred {
			inferred = true
		} else if d < 0 {
			return nil, misfit("bad dimension %d in %v", d, n.Shape)
		} else {
			known *= d
		}
	}
	fits := known == t.Len()
	if inferred {
		fits = known > 0 && t.Len()%known == 0
	}
	if !fits {
		return nil, misfit("cannot reshape %v to %v", t.Shape, n.Shape)
	}
	return t.Reshape(n.Shape...), nil
}

// walk runs g's nodes in order for one executor: bind places each graph
// input but the ids inputs (the ops that take ids read those from in), and
// run applies a node's catalog entry to its operands. Errors carry the
// node's context.
func walk[E any](g *Graph, in *Input, bind func(InputSpec) (*tensor.Tensor[E], error),
	run func(o op, c call, x []*tensor.Tensor[E]) (*tensor.Tensor[E], error)) (map[string]*tensor.Tensor[E], error) {
	env := map[string]*tensor.Tensor[E]{}
	for _, spec := range g.Inputs {
		if spec.Kind == IDInput {
			if _, err := values(in.IDs, spec); err != nil {
				return nil, err
			}
			continue
		}
		t, err := bind(spec)
		if err != nil {
			return nil, err
		}
		env[spec.Name] = t
	}
	for i, n := range g.Nodes {
		o, ok := ops[n.Op]
		c := call{n, g, in}
		x, err := operands(o, c, env)
		var y *tensor.Tensor[E]
		if !ok {
			err = misfit("unsupported op %q", n.Op)
		} else if err == nil {
			y, err = run(o, c, x)
		}
		if err != nil {
			return nil, fmt.Errorf("model %s: node %d (%s -> %s): %w", g.Name, i, n.Op, n.Output, err)
		}
		env[n.Output] = y
	}
	return env, nil
}

// operands gathers c's input tensors from env and checks them against o.
func operands[E any](o op, c call, env map[string]*tensor.Tensor[E]) ([]*tensor.Tensor[E], error) {
	if !o.takes(len(c.Inputs)) {
		return nil, misfit("%d inputs", len(c.Inputs))
	}
	if o.ids {
		if o.fit != nil {
			return nil, o.fit(c, nil)
		}
		return nil, nil
	}
	x := make([]*tensor.Tensor[E], len(c.Inputs))
	shapes := make([][]int, len(c.Inputs))
	for j, name := range c.Inputs {
		t, ok := env[name]
		if !ok {
			return nil, misfit("undefined tensor %q", name)
		}
		if o.rank > 0 && t.Rank() != o.rank {
			return nil, misfit("operand %q has shape %v, want rank %d", name, t.Shape, o.rank)
		}
		x[j], shapes[j] = t, t.Shape
	}
	if o.fit != nil {
		if err := o.fit(c, shapes); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// values returns spec's values from m, checked against its shape.
func values[V any](m map[string][]V, spec InputSpec) ([]V, error) {
	v, ok := m[spec.Name]
	if !ok {
		return nil, fmt.Errorf("model: missing %s input %q", spec.Kind, spec.Name)
	}
	if len(v) != tensor.NumElems(spec.Shape) {
		return nil, fmt.Errorf("model: input %q has %d values, want %d", spec.Name, len(v), tensor.NumElems(spec.Shape))
	}
	return v, nil
}

// outputs picks g's declared outputs, in order, from a walk's environment.
func outputs[E any](g *Graph, env map[string]*tensor.Tensor[E]) []*tensor.Tensor[E] {
	outs := make([]*tensor.Tensor[E], len(g.Outputs))
	for i, name := range g.Outputs {
		outs[i] = env[name]
	}
	return outs
}
