package model

import (
	"fmt"
	"math"

	"repro/internal/layers"
	"repro/internal/tensor"
)

// FT is a float tensor.
type FT = tensor.Tensor[float64]

// RunFloat executes the graph in FP32-style float arithmetic — the
// reference semantics the circuit's fixed-point results are compared
// against (Table 8).
func (g *Graph) RunFloat(in *Input) (map[string]*FT, error) {
	return walk(g, in, func(spec InputSpec) (*FT, error) {
		if spec.Kind == ActInput {
			// Boundary activations are fixed-point values at one circuit's
			// scale: run the full (unsharded) graph for reference outputs.
			return nil, fmt.Errorf("model: float execution does not support act input %q (chunk subgraph)", spec.Name)
		}
		v, err := values(in.Floats, spec)
		if err != nil {
			return nil, err
		}
		return tensor.FromSlice(append([]float64(nil), v...), spec.Shape...), nil
	}, func(o op, c call, x []*FT) (*FT, error) { return o.float(c, x) })
}

// OutputsFloat runs the graph and returns the declared outputs in order.
func (g *Graph) OutputsFloat(in *Input) ([]*FT, error) {
	env, err := g.RunFloat(in)
	if err != nil {
		return nil, err
	}
	return outputs(g, env), nil
}

func sum(vs []float64) float64 {
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s
}

func convDimsF(in, k, stride int, pad layers.Padding) (out, before, after int) {
	switch pad {
	case "valid", "":
		return (in-k)/stride + 1, 0, 0
	case "same":
		out = (in + stride - 1) / stride
		total := (out-1)*stride + k - in
		if total < 0 {
			total = 0
		}
		return out, total / 2, total - total/2
	}
	panic("model: unknown padding " + string(pad))
}

func floatConv2D(x, k, bias *FT, stride int, pad layers.Padding) *FT {
	h, w, cin := x.Shape[0], x.Shape[1], x.Shape[2]
	kh, kw, _, cout := k.Shape[0], k.Shape[1], k.Shape[2], k.Shape[3]
	oh, ph0, ph1 := convDimsF(h, kh, stride, pad)
	ow, pw0, pw1 := convDimsF(w, kw, stride, pad)
	padded := x.Pad([]int{ph0, pw0, 0}, []int{ph1, pw1, 0}, 0)
	out := tensor.New[float64](oh, ow, cout)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for f := 0; f < cout; f++ {
				acc := 0.0
				if bias != nil {
					acc = bias.At(f)
				}
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						for c := 0; c < cin; c++ {
							acc += padded.At(oy*stride+ky, ox*stride+kx, c) * k.At(ky, kx, c, f)
						}
					}
				}
				out.Set(acc, oy, ox, f)
			}
		}
	}
	return out
}

func floatDWConv2D(x, k, bias *FT, stride int, pad layers.Padding) *FT {
	h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
	kh, kw := k.Shape[0], k.Shape[1]
	oh, ph0, ph1 := convDimsF(h, kh, stride, pad)
	ow, pw0, pw1 := convDimsF(w, kw, stride, pad)
	padded := x.Pad([]int{ph0, pw0, 0}, []int{ph1, pw1, 0}, 0)
	out := tensor.New[float64](oh, ow, c)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < c; ch++ {
				acc := 0.0
				if bias != nil {
					acc = bias.At(ch)
				}
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						acc += padded.At(oy*stride+ky, ox*stride+kx, ch) * k.At(ky, kx, ch)
					}
				}
				out.Set(acc, oy, ox, ch)
			}
		}
	}
	return out
}

func floatFC(x, w, bias *FT) *FT {
	batch, in := x.Shape[0], x.Shape[1]
	out := w.Shape[0]
	y := tensor.New[float64](batch, out)
	for b := 0; b < batch; b++ {
		for o := 0; o < out; o++ {
			acc := 0.0
			if bias != nil {
				acc = bias.At(o)
			}
			for i := 0; i < in; i++ {
				acc += x.At(b, i) * w.At(o, i)
			}
			y.Set(acc, b, o)
		}
	}
	return y
}

func floatMatMul(x, y *FT) *FT {
	m, k := x.Shape[0], x.Shape[1]
	n := y.Shape[1]
	out := tensor.New[float64](m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for kk := 0; kk < k; kk++ {
				acc += x.At(i, kk) * y.At(kk, j)
			}
			out.Set(acc, i, j)
		}
	}
	return out
}

func floatBatchMatMul(x, y *FT) *FT {
	bs := x.Shape[0]
	outs := make([]*FT, bs)
	for i := 0; i < bs; i++ {
		xi := x.Slice([]int{i, 0, 0}, []int{i + 1, x.Shape[1], x.Shape[2]}).Reshape(x.Shape[1], x.Shape[2])
		yi := y.Slice([]int{i, 0, 0}, []int{i + 1, y.Shape[1], y.Shape[2]}).Reshape(y.Shape[1], y.Shape[2])
		m := floatMatMul(xi, yi)
		outs[i] = m.Reshape(1, m.Shape[0], m.Shape[1])
	}
	return tensor.Concat(0, outs...)
}

func floatPool(x *FT, k, stride int, avg bool) *FT {
	h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := tensor.New[float64](oh, ow, c)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for ch := 0; ch < c; ch++ {
				if avg {
					acc := 0.0
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							acc += x.At(oy*stride+ky, ox*stride+kx, ch)
						}
					}
					out.Set(acc/float64(k*k), oy, ox, ch)
				} else {
					m := math.Inf(-1)
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							m = math.Max(m, x.At(oy*stride+ky, ox*stride+kx, ch))
						}
					}
					out.Set(m, oy, ox, ch)
				}
			}
		}
	}
	return out
}

func floatGlobalAvgPool(x *FT) *FT {
	h, w, c := x.Shape[0], x.Shape[1], x.Shape[2]
	out := tensor.New[float64](c)
	for ch := 0; ch < c; ch++ {
		acc := 0.0
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				acc += x.At(y, xx, ch)
			}
		}
		out.Set(acc/float64(h*w), ch)
	}
	return out
}

// floatEmbed gathers one row of table per id.
func floatEmbed(table *FT, ids []int) *FT {
	d := table.Shape[1]
	out := tensor.New[float64](len(ids), d)
	for i, id := range ids {
		copy(out.Data[i*d:], table.Data[id*d:(id+1)*d])
	}
	return out
}

func floatReduce(x *FT, fn func([]float64) float64) *FT {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	out := tensor.New[float64](flat.Shape[0])
	for r := 0; r < flat.Shape[0]; r++ {
		out.Data[r] = fn(flat.Data[r*last : (r+1)*last])
	}
	return out.Reshape(x.Shape[:len(x.Shape)-1]...)
}

func floatSoftmax(x *FT) *FT {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	out := tensor.New[float64](flat.Shape[0], last)
	for r := 0; r < flat.Shape[0]; r++ {
		row := flat.Data[r*last : (r+1)*last]
		m := row[0]
		for _, v := range row[1:] {
			m = math.Max(m, v)
		}
		total := 0.0
		exps := make([]float64, last)
		for i, v := range row {
			exps[i] = math.Exp(v - m)
			total += exps[i]
		}
		for i := range exps {
			out.Data[r*last+i] = exps[i] / total
		}
	}
	return out.Reshape(x.Shape...)
}

func floatLayerNorm(x, gamma, beta *FT) *FT {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	out := tensor.New[float64](flat.Shape[0], last)
	for r := 0; r < flat.Shape[0]; r++ {
		row := flat.Data[r*last : (r+1)*last]
		mean := sum(row) / float64(last)
		v := 0.0
		for _, x := range row {
			v += (x - mean) * (x - mean)
		}
		v /= float64(last)
		inv := 1 / math.Sqrt(v+1e-5)
		for i, x := range row {
			y := (x - mean) * inv
			if gamma != nil {
				y *= gamma.Data[i]
			}
			if beta != nil {
				y += beta.Data[i]
			}
			out.Data[r*last+i] = y
		}
	}
	return out.Reshape(x.Shape...)
}

// floatLSTM mirrors layers.LSTM in float arithmetic: packed gate weights
// wx [4H, D], wh [4H, H], bias [4H], gate order (i, f, g, o).
func floatLSTM(x, wx, wh, bias *FT) *FT {
	tLen, d := x.Shape[0], x.Shape[1]
	hDim := wx.Shape[0] / 4
	h := make([]float64, hDim)
	c := make([]float64, hDim)
	out := tensor.New[float64](tLen, hDim)
	gate := func(row int, xs, hs []float64) float64 {
		acc := 0.0
		if bias != nil {
			acc = bias.Data[row]
		}
		for j := 0; j < d; j++ {
			acc += wx.Data[row*d+j] * xs[j]
		}
		for j := 0; j < hDim; j++ {
			acc += wh.Data[row*hDim+j] * hs[j]
		}
		return acc
	}
	sigmoid := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	for step := 0; step < tLen; step++ {
		xs := x.Data[step*d : (step+1)*d]
		hNext := make([]float64, hDim)
		cNext := make([]float64, hDim)
		for u := 0; u < hDim; u++ {
			iG := sigmoid(gate(0*hDim+u, xs, h))
			fG := sigmoid(gate(1*hDim+u, xs, h))
			gG := math.Tanh(gate(2*hDim+u, xs, h))
			oG := sigmoid(gate(3*hDim+u, xs, h))
			cNext[u] = fG*c[u] + iG*gG
			hNext[u] = oG * math.Tanh(cNext[u])
			out.Set(hNext[u], step, u)
		}
		h, c = hNext, cNext
	}
	return out
}

func floatRMSNorm(x, gamma *FT) *FT {
	last := x.Shape[len(x.Shape)-1]
	flat := x.Reshape(-1, last)
	out := tensor.New[float64](flat.Shape[0], last)
	for r := 0; r < flat.Shape[0]; r++ {
		row := flat.Data[r*last : (r+1)*last]
		ms := 0.0
		for _, v := range row {
			ms += v * v
		}
		inv := 1 / math.Sqrt(ms/float64(last)+1e-5)
		for i, v := range row {
			y := v * inv
			if gamma != nil {
				y *= gamma.Data[i]
			}
			out.Data[r*last+i] = y
		}
	}
	return out.Reshape(x.Shape...)
}
