package layers

import (
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/tensor"
)

// LSTM runs a step-unrolled LSTM over a [T, D] input sequence (paper §4:
// ZKML supports LSTMs by unrolling; no in-circuit branching is needed).
// Weights follow the standard packed layout: wx [4H, D], wh [4H, H], bias
// [4H], gate order (i, f, g, o). Returns all hidden states [T, H].
//
// Per step:
//
//	i = sigmoid(Wx_i·x + Wh_i·h + b_i)
//	f = sigmoid(Wx_f·x + Wh_f·h + b_f)
//	g = tanh  (Wx_g·x + Wh_g·h + b_g)
//	o = sigmoid(Wx_o·x + Wh_o·h + b_o)
//	c = f⊙c + i⊙g
//	h = o⊙tanh(c)
func LSTM(b *gadgets.Builder, x *T, wx, wh, bias *IT) *T {
	tLen, d := x.Shape[0], x.Shape[1]
	h4 := wx.Shape[0]
	hDim := h4 / 4
	if h4%4 != 0 || wx.Shape[1] != d || wh.Shape[0] != h4 || wh.Shape[1] != hDim {
		b.Failf("layers: LSTM: weight shapes wx %v wh %v do not fit input %v", wx.Shape, wh.Shape, x.Shape)
		return tensor.New[*gadgets.Value](0, 0)
	}
	hPrev := make([]*gadgets.Value, hDim)
	cPrev := make([]*gadgets.Value, hDim)
	for i := range hPrev {
		hPrev[i] = b.Constant(0)
		cPrev[i] = b.Constant(0)
	}
	out := tensor.New[*gadgets.Value](tLen, hDim)

	gate := func(r int, xs, hs []*gadgets.Value) *gadgets.Value {
		acc := b.DotRaw(xs, nil, row(wx, r), biasInit(b, bias, r))
		return b.Rescale(b.DotRaw(hs, nil, row(wh, r), acc))
	}

	for step := 0; step < tLen; step++ {
		xs := row(x, step)
		hNext := make([]*gadgets.Value, hDim)
		cNext := make([]*gadgets.Value, hDim)
		for u := 0; u < hDim; u++ {
			iG := b.Nonlinear(fixedpoint.Sigmoid, gate(0*hDim+u, xs, hPrev))
			fG := b.Nonlinear(fixedpoint.Sigmoid, gate(1*hDim+u, xs, hPrev))
			gG := b.Nonlinear(fixedpoint.Tanh, gate(2*hDim+u, xs, hPrev))
			oG := b.Nonlinear(fixedpoint.Sigmoid, gate(3*hDim+u, xs, hPrev))
			fc := b.Rescale(b.MulRaw(fG, cPrev[u]))
			ig := b.Rescale(b.MulRaw(iG, gG))
			cNext[u] = b.Add(fc, ig)
			hNext[u] = b.Rescale(b.MulRaw(oG, b.Nonlinear(fixedpoint.Tanh, cNext[u])))
			out.Set(hNext[u], step, u)
		}
		hPrev, cPrev = hNext, cNext
	}
	return out
}
