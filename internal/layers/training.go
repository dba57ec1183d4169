package layers

import (
	"fmt"

	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/tensor"
)

// Proof-of-training support (paper Table 2: ZKML uniquely supports "CNN
// training" among the compared systems). TrainStep lays out one full SGD
// step of a one-hidden-layer sigmoid MLP in-circuit: forward pass, squared
// loss, backpropagation, and the weight update — so a prover can show that
// published weights W' really are W after a gradient step on some (private)
// example. Sigmoid is used for the hidden layer because its derivative
// h·(1-h) is pure arithmetic (ReLU's derivative would need a step table).
//
// Shapes: x [in], y [out], w1 [hidden, in], b1 [hidden],
// w2 [out, hidden], b2 [out]. All parameters are witness values (they are
// the quantities being updated); the learning rate is a public constant.

// MLPParams holds the (witness) parameters of the little MLP.
type MLPParams struct {
	W1, B1 *T // [hidden, in], [hidden]
	W2, B2 *T // [out, hidden], [out]
}

// NewMLPParams wraps quantized parameter tensors as witness values.
func NewMLPParams(b *gadgets.Builder, w1, b1, w2, b2 *IT) MLPParams {
	wrap := func(t *IT) *T {
		return tensor.Map(t, func(v int64) *gadgets.Value { return b.Witness(v) })
	}
	return MLPParams{W1: wrap(w1), B1: wrap(b1), W2: wrap(w2), B2: wrap(b2)}
}

// TrainStep performs one in-circuit SGD step on example (x, y) with
// learning rate lr (a float; quantized internally) and returns the updated
// parameters and the pre-update prediction.
func TrainStep(b *gadgets.Builder, p MLPParams, x, y *T, lr float64) (MLPParams, *T) {
	hidden, in := p.W1.Shape[0], p.W1.Shape[1]
	out := p.W2.Shape[0]
	if x.Len() != in || y.Len() != out {
		panic(fmt.Sprintf("layers: TrainStep shapes x %v y %v vs params %vx%v->%v",
			x.Shape, y.Shape, in, hidden, out))
	}
	fp := b.Config().FP
	sf := fp.SF()
	lrQ := fp.Quantize(lr)

	// Forward: pre = W1·x + b1, h = sigmoid(pre), yhat = W2·h + b2.
	h := make([]*gadgets.Value, hidden)
	for u := 0; u < hidden; u++ {
		acc := b.DotRaw(x.Data, row(p.W1, u), nil, b.MulC(p.B1.Data[u], sf))
		h[u] = b.Nonlinear(fixedpoint.Sigmoid, b.Rescale(acc))
	}
	yhat := make([]*gadgets.Value, out)
	for o := 0; o < out; o++ {
		acc := b.DotRaw(h, row(p.W2, o), nil, b.MulC(p.B2.Data[o], sf))
		yhat[o] = b.Rescale(acc)
	}

	// Backward. Squared loss L = sum (yhat - y)^2: dyhat = 2(yhat - y).
	dyhat := make([]*gadgets.Value, out)
	for o := 0; o < out; o++ {
		dyhat[o] = b.MulC(b.Sub(yhat[o], y.Data[o]), 2)
	}
	// dh_u = sum_o dyhat_o * W2[o][u]; dpre_u = dh_u * h_u * (1 - h_u).
	oneC := b.Constant(sf)
	dpre := make([]*gadgets.Value, hidden)
	w2T := p.W2.Transpose()
	for u := 0; u < hidden; u++ {
		dh := b.Rescale(b.DotRaw(dyhat, row(w2T, u), nil, nil))
		hu := h[u]
		sgPrime := b.Rescale(b.MulRaw(hu, b.Sub(oneC, hu)))
		dpre[u] = b.Rescale(b.MulRaw(dh, sgPrime))
	}

	// Updates: W' = W - lr * grad (gradients formed per entry).
	step := func(w *gadgets.Value, grad *gadgets.Value) *gadgets.Value {
		return b.Sub(w, b.Rescale(b.MulRaw(grad, b.Constant(lrQ))))
	}
	next := MLPParams{
		W1: tensor.New[*gadgets.Value](hidden, in),
		B1: tensor.New[*gadgets.Value](hidden),
		W2: tensor.New[*gadgets.Value](out, hidden),
		B2: tensor.New[*gadgets.Value](out),
	}
	for u := 0; u < hidden; u++ {
		for j := 0; j < in; j++ {
			grad := b.Rescale(b.MulRaw(dpre[u], x.Data[j]))
			next.W1.Set(step(p.W1.At(u, j), grad), u, j)
		}
		next.B1.Set(step(p.B1.Data[u], dpre[u]), u)
	}
	for o := 0; o < out; o++ {
		for u := 0; u < hidden; u++ {
			grad := b.Rescale(b.MulRaw(dyhat[o], h[u]))
			next.W2.Set(step(p.W2.At(o, u), grad), o, u)
		}
		next.B2.Set(step(p.B2.Data[o], dyhat[o]), o)
	}
	pred := tensor.FromSlice(yhat, out)
	return next, pred
}

// PublishParams exposes every updated parameter as a public output (the
// trained-weights commitment a verifier checks against).
func PublishParams(b *gadgets.Builder, p MLPParams) {
	for _, t := range []*T{p.W1, p.B1, p.W2, p.B2} {
		Outputs(b, t)
	}
}
