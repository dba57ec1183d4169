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
	y := env[n.Output]
	f := ops[n.Op].flops
	if f == nil {
		return int64(y.Len())
	}
	return f(n, g.Weights[n.Weight].Shape, env[n.Inputs[0]], y)
}
