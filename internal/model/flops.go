package model

// Flops estimates the multiply-accumulate-dominated floating point
// operation count of one inference (the Table 5 "Flops" column), from the
// tensor shapes observed during a reference execution.
func (g *Graph) Flops(in *Input) (int64, error) {
	env, err := g.RunFloat(in)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range g.Nodes {
		total += g.nodeFlops(n, env)
	}
	return total, nil
}

// nodeFlops estimates one node's multiply-accumulate-dominated operation
// count from the tensor shapes in env (a RunFloat environment). Also drives
// Partition's flop-balanced chunk cuts.
func (g *Graph) nodeFlops(n Node, env map[string]*FT) int64 {
	elems := func(name string) int64 {
		if t, ok := env[name]; ok {
			return int64(t.Len())
		}
		return 0
	}
	out := elems(n.Output)
	switch n.Op {
	case "conv2d":
		w := g.Weights[n.Weight]
		// 2 * out elements * per-output kernel size.
		return 2 * out * int64(w.Shape[0]*w.Shape[1]*w.Shape[2])
	case "depthwise_conv2d":
		w := g.Weights[n.Weight]
		return 2 * out * int64(w.Shape[0]*w.Shape[1])
	case "fc":
		w := g.Weights[n.Weight]
		return 2 * out * int64(w.Shape[1])
	case "matmul", "batch_matmul":
		x := env[n.Inputs[0]]
		k := x.Shape[len(x.Shape)-1]
		return 2 * out * int64(k)
	case "avg_pool", "max_pool":
		return out * int64(n.PoolK*n.PoolK)
	case "global_avg_pool":
		return elems(n.Inputs[0])
	case "softmax":
		return 5 * out
	case "layer_norm", "rms_norm":
		return 8 * out
	case "reduce_sum", "reduce_mean", "reduce_max":
		return elems(n.Inputs[0])
	case "reshape", "flatten", "transpose", "concat", "slice",
		"pad_zero", "split_last", "identity", "squeeze", "expand_dims", "embed":
		// Shape operations are free.
		return 0
	default:
		// Pointwise ops: one flop per element.
		return out
	}
}
