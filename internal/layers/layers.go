// Package layers implements ZKML's ML layer catalog (paper §6) by composing
// gadgets: linear layers (convolutions, fully connected, batched matmul),
// pooling, activations, arithmetic layers, softmax, and normalization.
// Tensors of circuit values flow between layers; shape operations are free
// (tensor views), while compute layers emit gadget rows.
package layers

import (
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/tensor"
)

// T is a tensor of circuit values.
type T = tensor.Tensor[*gadgets.Value]

// IT is a tensor of quantized integer constants (weights).
type IT = tensor.Tensor[int64]

// Padding selects convolution/pooling padding.
type Padding string

// Padding modes.
const (
	Valid Padding = "valid"
	Same  Padding = "same"
)

// FullyConnected computes y = x·wᵀ + bias with constant weights.
// x: [batch, in]; w: [out, in]; bias: [out] (nil for none).
func FullyConnected(b *gadgets.Builder, x *T, w *IT, bias *IT) *T {
	return product(b, "FullyConnected", x, w, bias)
}

// MatMul computes x [m,k] · y [k,n] where both operands are witness tensors
// (e.g. attention scores).
func MatMul(b *gadgets.Builder, x, y *T) *T {
	return product(b, "MatMul", x, y.Transpose(), nil)
}

// BatchMatMul applies MatMul over a leading batch axis: x [B,m,k]·y [B,k,n].
func BatchMatMul(b *gadgets.Builder, x, y *T) *T {
	bs := x.Shape[0]
	outs := make([]*T, bs)
	for i := 0; i < bs; i++ {
		xi := x.Slice([]int{i, 0, 0}, []int{i + 1, x.Shape[1], x.Shape[2]}).Reshape(x.Shape[1], x.Shape[2])
		yi := y.Slice([]int{i, 0, 0}, []int{i + 1, y.Shape[1], y.Shape[2]}).Reshape(y.Shape[1], y.Shape[2])
		m := MatMul(b, xi, yi)
		outs[i] = m.Reshape(1, m.Shape[0], m.Shape[1])
	}
	return tensor.Concat(0, outs...)
}

// product is the one lowering of a linear layer's matrix product: a [M,K]
// times wᵀ for w [N,K], whose entries are constants (a layer's weights) or
// witness values. Each output, in row-major order, is one double-scale
// DotRaw that starts from the pre-scaled bias [N] (nil for none), then one
// Rescale (paper §6.2: the bias fused into the accumulation). Operands that
// disagree are a shape error recorded on the builder under the layer's
// name; the result is then empty and callers must check b.Err().
func product[W int64 | *gadgets.Value](b *gadgets.Builder, layer string, a *T, w *tensor.Tensor[W], bias *IT) *T {
	if a.Rank() != 2 || w.Rank() != 2 || a.Shape[1] != w.Shape[1] {
		b.Failf("layers: %s: input %v does not match weights %v", layer, a.Shape, w.Shape)
		return tensor.New[*gadgets.Value](0, 0)
	}
	m, n := a.Shape[0], w.Shape[0]
	if bias != nil && bias.Len() != n {
		b.Failf("layers: %s: %d biases for %d outputs", layer, bias.Len(), n)
		return tensor.New[*gadgets.Value](0, 0)
	}
	out := tensor.New[*gadgets.Value](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var ws []*gadgets.Value
			var consts []int64
			switch wj := any(row(w, j)).(type) {
			case []int64:
				consts = wj
			case []*gadgets.Value:
				ws = wj
			}
			out.Data[i*n+j] = b.Rescale(b.DotRaw(row(a, i), ws, consts, biasInit(b, bias, j)))
		}
	}
	return out
}

// biasInit is the accumulator start of output i: bias[i] pre-scaled to the
// double scale of a dot product, or nil without a bias.
func biasInit(b *gadgets.Builder, bias *IT, i int) *gadgets.Value {
	if bias == nil {
		return nil
	}
	return b.Constant(bias.Data[i] * b.Config().FP.SF())
}

// row returns row i of a rank-2 tensor as a view of its data, capped so an
// append cannot reach row i+1.
func row[E any](t *tensor.Tensor[E], i int) []E {
	n := t.Shape[1]
	return t.Data[i*n : (i+1)*n : (i+1)*n]
}

// convDims computes output size and pre-padding for a convolution axis. A
// kernel larger than the (padded) input is a shape error recorded on the
// builder under the layer's name — callers get zero output dims and must
// check b.Err() — rather than a non-positive dimension that dies later in
// an opaque tensor.New/make panic.
func convDims(b *gadgets.Builder, layer string, in, k, stride int, pad Padding) (out, before, after int) {
	switch pad {
	case Valid:
		out = (in-k)/stride + 1
	case Same:
		out = (in + stride - 1) / stride
		total := (out-1)*stride + k - in
		if total < 0 {
			total = 0
		}
		before, after = total/2, total-total/2
	default:
		panic("layers: unknown padding " + string(pad))
	}
	if out <= 0 || in+before+after < k {
		b.Failf("layers: %s: kernel size %d exceeds %s-padded input extent %d (stride %d)",
			layer, k, pad, in+before+after, stride)
		return 0, 0, 0
	}
	return out, before, after
}

// convInput zero-pads x [H, W, C] for a kh×kw convolution at stride and
// returns it with the output extent (see convDims).
func convInput(b *gadgets.Builder, layer string, x *T, kh, kw, stride int, pad Padding) (padded *T, oh, ow int) {
	oh, ph0, ph1 := convDims(b, layer, x.Shape[0], kh, stride, pad)
	ow, pw0, pw1 := convDims(b, layer, x.Shape[1], kw, stride, pad)
	return x.Pad([]int{ph0, pw0, 0}, []int{ph1, pw1, 0}, b.Constant(0)), oh, ow
}

// poolDims validates a pooling window against the input extents, recording
// a shape error naming the layer (see convDims).
func poolDims(b *gadgets.Builder, layer string, x *T, k, stride int) (oh, ow int) {
	h, w := x.Shape[0], x.Shape[1]
	if k > h || k > w {
		b.Failf("layers: %s: window size %d exceeds input %dx%d", layer, k, h, w)
		return 0, 0
	}
	return (h-k)/stride + 1, (w-k)/stride + 1
}

// window returns the kh×kw window of x [H, W, C] whose top-left corner is
// (y, x0), as one slice flattened to [kh·kw, C].
func window(x *T, y, x0, kh, kw int) *T {
	c := x.Shape[2]
	return x.Slice([]int{y, x0, 0}, []int{y + kh, x0 + kw, c}).Reshape(kh*kw, c)
}

// windowed reduces every kh×kw window of x [H, W, C] taken at stride, one
// channel at a time, to one value; the result is [oh, ow, C]. reduce gets
// the channel and its kh·kw window values in row-major order.
func windowed(x *T, oh, ow, kh, kw, stride int, reduce func(ch int, vals []*gadgets.Value) *gadgets.Value) *T {
	c := x.Shape[2]
	out := tensor.New[*gadgets.Value](oh, ow, c)
	for i := 0; i < oh*ow; i++ {
		chans := window(x, i/ow*stride, i%ow*stride, kh, kw).Transpose()
		for ch := 0; ch < c; ch++ {
			out.Data[i*c+ch] = reduce(ch, row(chans, ch))
		}
	}
	return out
}

// Conv2D computes a 2D convolution with constant weights as one product:
// the im2col patches [OH·OW, KH·KW·Cin] times the kernel rearranged to
// [Cout, KH·KW·Cin].
// x: [H, W, Cin]; kernel: [KH, KW, Cin, Cout]; bias: [Cout] or nil.
func Conv2D(b *gadgets.Builder, x *T, kernel *IT, bias *IT, stride int, pad Padding) *T {
	kh, kw, cout := kernel.Shape[0], kernel.Shape[1], kernel.Shape[3]
	padded, oh, ow := convInput(b, "Conv2D", x, kh, kw, stride, pad)
	k := kh * kw * x.Shape[2]
	patches := tensor.New[*gadgets.Value](oh*ow, k)
	for i := 0; i < oh*ow; i++ {
		copy(row(patches, i), window(padded, i/ow*stride, i%ow*stride, kh, kw).Data)
	}
	y := product(b, "Conv2D", patches, kernel.Reshape(kh*kw*kernel.Shape[2], cout).Transpose(), bias)
	return y.Reshape(oh, ow, y.Shape[1])
}

// DepthwiseConv2D convolves each channel with its own kernel.
// x: [H, W, C]; kernel: [KH, KW, C]; bias: [C] or nil.
func DepthwiseConv2D(b *gadgets.Builder, x *T, kernel *IT, bias *IT, stride int, pad Padding) *T {
	kh, kw := kernel.Shape[0], kernel.Shape[1]
	if kernel.Shape[2] != x.Shape[2] {
		b.Failf("layers: DepthwiseConv2D: input %v does not match kernel %v", x.Shape, kernel.Shape)
		return tensor.New[*gadgets.Value](0, 0, 0)
	}
	padded, oh, ow := convInput(b, "DepthwiseConv2D", x, kh, kw, stride, pad)
	wcols := kernel.Reshape(kh*kw, kernel.Shape[2]).Transpose() // [C, KH·KW]
	return windowed(padded, oh, ow, kh, kw, stride, func(ch int, patch []*gadgets.Value) *gadgets.Value {
		return b.Rescale(b.DotRaw(patch, nil, row(wcols, ch), biasInit(b, bias, ch)))
	})
}

// AveragePool2D averages non-overlapping (or strided) windows.
func AveragePool2D(b *gadgets.Builder, x *T, k, stride int) *T {
	oh, ow := poolDims(b, "AveragePool2D", x, k, stride)
	return windowed(x, oh, ow, k, k, stride, func(_ int, vals []*gadgets.Value) *gadgets.Value {
		return b.DivRoundConst(b.SumVec(vals), int64(k*k))
	})
}

// MaxPool2D takes window maxima via the max gadget.
func MaxPool2D(b *gadgets.Builder, x *T, k, stride int) *T {
	oh, ow := poolDims(b, "MaxPool2D", x, k, stride)
	return windowed(x, oh, ow, k, k, stride, func(_ int, vals []*gadgets.Value) *gadgets.Value {
		return b.MaxVec(vals)
	})
}

// GlobalAveragePool reduces [H, W, C] to [C].
func GlobalAveragePool(b *gadgets.Builder, x *T) *T {
	h, w := x.Shape[0], x.Shape[1]
	return windowed(x, 1, 1, h, w, 1, func(_ int, vals []*gadgets.Value) *gadgets.Value {
		return b.DivRoundConst(b.SumVec(vals), int64(h*w))
	}).Reshape(x.Shape[2])
}

// Activation applies a pointwise nonlinearity.
func Activation(b *gadgets.Builder, nl fixedpoint.Nonlinearity, x *T) *T {
	return tensor.Map(x, func(v *gadgets.Value) *gadgets.Value {
		return b.Nonlinear(nl, v)
	})
}

// Add / Sub / Mul / SquaredDifference are elementwise arithmetic layers
// (broadcasting the second operand if needed).
func Add(b *gadgets.Builder, x, y *T) *T {
	y = maybeBroadcast(y, x.Shape)
	return tensor.Zip(x, y, func(a, c *gadgets.Value) *gadgets.Value { return b.Add(a, c) })
}

// Sub computes x - y elementwise.
func Sub(b *gadgets.Builder, x, y *T) *T {
	y = maybeBroadcast(y, x.Shape)
	return tensor.Zip(x, y, func(a, c *gadgets.Value) *gadgets.Value { return b.Sub(a, c) })
}

// Mul computes the rescaled elementwise product.
func Mul(b *gadgets.Builder, x, y *T) *T {
	y = maybeBroadcast(y, x.Shape)
	return tensor.Zip(x, y, func(a, c *gadgets.Value) *gadgets.Value { return b.Mul(a, c) })
}

// Div computes the rescaled elementwise quotient x/y (y must be positive).
func Div(b *gadgets.Builder, x, y *T) *T {
	y = maybeBroadcast(y, x.Shape)
	sf := b.Config().FP.SF()
	return tensor.Zip(x, y, func(a, c *gadgets.Value) *gadgets.Value {
		return b.VarDiv(b.MulC(a, sf), c)
	})
}

// SquaredDifference computes (x-y)^2 rescaled.
func SquaredDifference(b *gadgets.Builder, x, y *T) *T {
	y = maybeBroadcast(y, x.Shape)
	return tensor.Zip(x, y, func(a, c *gadgets.Value) *gadgets.Value {
		return b.Rescale(b.SqDiffRaw(a, c))
	})
}

func maybeBroadcast(y *T, shape []int) *T {
	if tensor.NumElems(y.Shape) == tensor.NumElems(shape) {
		return y
	}
	return y.BroadcastTo(shape...)
}

// Softmax computes the numerically stable softmax along the last axis
// exactly as §6 of the paper prescribes: subtract the max (max gadget),
// exponentiate through the scaled-exp lookup, then divide each scaled
// numerator by the sum with the variable-division gadget.
func Softmax(b *gadgets.Builder, x *T) *T {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	rows := flat.Shape[0]
	sf := b.Config().FP.SF()
	out := tensor.New[*gadgets.Value](rows, last)
	for r := 0; r < rows; r++ {
		vals := row(flat, r)
		m := b.MaxVec(vals)
		exps := make([]*gadgets.Value, last)
		for i := 0; i < last; i++ {
			exps[i] = b.Nonlinear(fixedpoint.Exp, b.Sub(vals[i], m))
		}
		total := b.SumVec(exps)
		// The exponential sum can reach last*SF, which may exceed the
		// variable-division divisor bound of 2^(LookupBits-1); shrink
		// numerator and denominator by the same power of two k (the
		// paper's limb trick specialized to a single limb). Up to k = SF
		// the numerator shrink folds into its scale multiplier sf/k; past
		// that (rows wider than ~HalfRange elements) the multiplier would
		// truncate to 0 and silently zero the whole row, so the numerators
		// are instead divided by k/SF — same quotient exps[i]·sf/total,
		// one extra DivRoundConst per element.
		k := int64(1)
		for int64(last)*sf/k > b.Config().FP.HalfRange() {
			k *= 2
		}
		if shrink := k / sf; shrink > b.Config().FP.HalfRange() {
			b.Failf("layers: Softmax over %d elements needs numerator shrink %d beyond the divisor bound %d — increase ScaleBits or LookupBits",
				last, shrink, b.Config().FP.HalfRange())
		}
		den := total
		if k > 1 {
			den = b.DivRoundConst(total, k)
		}
		for i := 0; i < last; i++ {
			num := exps[i]
			if k <= sf {
				num = b.MulC(exps[i], sf/k)
			} else {
				num = b.DivRoundConst(exps[i], k/sf)
			}
			out.Set(b.VarDiv(num, den), r, i)
		}
	}
	outShaped := out.Reshape(x.Shape...)
	return outShaped
}

// LayerNorm normalizes over the last axis with constant scale/shift:
// y = gamma * (x - mean) / sqrt(var + eps) + beta. The reciprocal square
// root goes through the rsqrt lookup table.
func LayerNorm(b *gadgets.Builder, x *T, gamma, beta *IT) *T {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	rows := flat.Shape[0]
	fp := b.Config().FP
	sf := fp.SF()
	eps := b.Constant(1) // smallest positive fixed-point value
	out := tensor.New[*gadgets.Value](rows, last)
	for r := 0; r < rows; r++ {
		vals := row(flat, r)
		mean := b.DivRoundConst(b.SumVec(vals), int64(last))
		diffs := make([]*gadgets.Value, last)
		sq := make([]*gadgets.Value, last)
		for i := 0; i < last; i++ {
			diffs[i] = b.Sub(vals[i], mean)
			// Rescale each square immediately so every division
			// quotient stays at single scale (within the lookup range).
			sq[i] = b.Rescale(b.SqDiffRaw(vals[i], mean))
		}
		variance := b.DivRoundConst(b.SumVec(sq), int64(last))
		rstd := b.Nonlinear(fixedpoint.Rsqrt, b.Add(variance, eps))
		for i := 0; i < last; i++ {
			norm := b.Rescale(b.MulRaw(diffs[i], rstd))
			init := biasInit(b, beta, i)
			g := sf // identity scale when gamma is nil
			if gamma != nil {
				g = gamma.Data[i]
			}
			out.Set(b.Rescale(b.DotRaw([]*gadgets.Value{norm}, nil, []int64{g}, init)), r, i)
		}
	}
	return out.Reshape(x.Shape...)
}

// RMSNorm normalizes by the root-mean-square over the last axis:
// y = gamma * x / sqrt(mean(x^2) + eps).
func RMSNorm(b *gadgets.Builder, x *T, gamma *IT) *T {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	rows := flat.Shape[0]
	fp := b.Config().FP
	sf := fp.SF()
	eps := b.Constant(1)
	out := tensor.New[*gadgets.Value](rows, last)
	for r := 0; r < rows; r++ {
		sq := make([]*gadgets.Value, last)
		vals := row(flat, r)
		for i, v := range vals {
			sq[i] = b.Rescale(b.SquareRaw(v))
		}
		ms := b.DivRoundConst(b.SumVec(sq), int64(last))
		rstd := b.Nonlinear(fixedpoint.Rsqrt, b.Add(ms, eps))
		for i := 0; i < last; i++ {
			norm := b.Rescale(b.MulRaw(vals[i], rstd))
			g := sf
			if gamma != nil {
				g = gamma.Data[i]
			}
			out.Set(b.Rescale(b.DotRaw([]*gadgets.Value{norm}, nil, []int64{g}, nil)), r, i)
		}
	}
	return out.Reshape(x.Shape...)
}

// ReduceSum sums along the last axis.
func ReduceSum(b *gadgets.Builder, x *T) *T {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	out := tensor.New[*gadgets.Value](flat.Shape[0])
	for r := range out.Data {
		out.Data[r] = b.SumVec(row(flat, r))
	}
	return out.Reshape(x.Shape[:len(x.Shape)-1]...)
}

// ReduceMean averages along the last axis.
func ReduceMean(b *gadgets.Builder, x *T) *T {
	last := x.Shape[len(x.Shape)-1]
	sum := ReduceSum(b, x)
	return tensor.Map(sum, func(v *gadgets.Value) *gadgets.Value {
		return b.DivRoundConst(v, int64(last))
	})
}

// ReduceMax takes the max along the last axis.
func ReduceMax(b *gadgets.Builder, x *T) *T {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	out := tensor.New[*gadgets.Value](flat.Shape[0])
	for r := range out.Data {
		out.Data[r] = b.MaxVec(row(flat, r))
	}
	return out.Reshape(x.Shape[:len(x.Shape)-1]...)
}

// Embed gathers rows of a committed embedding table with dynamic witness
// indices: each output row is bound to the table through a lookup argument
// (the id and the gathered values must form a table row). The table is
// registered once per name; ids vary per inference.
func Embed(b *gadgets.Builder, name string, table *IT, ids []int) *T {
	vocab, dim := table.Shape[0], table.Shape[1]
	b.RegisterTable(name, vocab, dim, table.Data)
	out := tensor.New[*gadgets.Value](len(ids), dim)
	for i, id := range ids {
		// Out-of-range ids are rejected by Gather itself (recorded on the
		// builder, with zero values returned), so the whole failure path
		// funnels through b.Err() rather than a panic.
		row := b.Gather(name, b.Witness(int64(id)))
		if len(row) != dim {
			// The builder recorded an error (e.g. the table row does not
			// fit the column budget); substitute placed zeros so callers
			// see b.Err() rather than a nil dereference in the next gadget.
			for d := 0; d < dim; d++ {
				out.Set(b.Constant(0), i, d)
			}
			continue
		}
		for d := 0; d < dim; d++ {
			out.Set(row[d], i, d)
		}
	}
	return out
}

// Inputs wraps a quantized input tensor as witness values.
func Inputs(b *gadgets.Builder, x *IT) *T {
	return tensor.Map(x, func(v int64) *gadgets.Value { return b.Witness(v) })
}

// Outputs exposes every element of a tensor as a public output, returning
// the instance rows used.
func Outputs(b *gadgets.Builder, x *T) []int {
	rows := make([]int, x.Len())
	for i, v := range x.Data {
		rows[i] = b.MakePublic(v)
	}
	return rows
}

// Values extracts the concrete fixed-point values of a tensor.
func Values(x *T) *IT {
	return tensor.Map(x, func(v *gadgets.Value) int64 { return v.Int64() })
}
