package model

import (
	"fmt"
	"sort"
)

// Sharded proving partitions a model graph at layer boundaries into
// contiguous chunks. Every tensor produced in one chunk and consumed in a
// later one — a boundary activation — becomes an explicit ActInput of the
// consumer and a declared output of the producer, so both sides commit to
// it as a public instance value. The verifier then binds the chain by
// checking instance-segment equality along every Wire (see
// zkml.ShardedSystem and DESIGN.md §16).
//
// The partitioning is a pure function of (graph, shard count): cut
// positions balance per-node flops, and the instance layout of every chunk
// (act inputs in g.Inputs order, then outputs in chunk-output order) is
// recomputed identically by prover and verifier — nothing about it needs
// to be serialized or trusted.

// Segment locates one tensor inside a chunk's single instance column.
type Segment struct {
	Tensor string
	Offset int
	Elems  int
}

// Wire binds a boundary tensor committed in the producing chunk's instance
// column to the same values re-committed by the consuming chunk.
type Wire struct {
	Tensor  string
	From    int // producing chunk
	FromOff int // offset in the producer's instance column
	To      int // consuming chunk
	ToOff   int // offset in the consumer's instance column
	Elems   int
}

// FinalOutput locates one full-graph output in the chunk that produces it.
type FinalOutput struct {
	Tensor string
	Chunk  int
	Offset int
	Elems  int
}

// Chunk is one shard of a partitioned graph: the subgraph plus the layout
// of its instance column. BoundaryIn lists the act inputs (in Graph.Inputs
// order — the order RunCircuit publishes them), Outputs lists every chunk
// output (boundary activations first, then finals). InstanceLen is the
// expected length of the chunk's instance column.
type Chunk struct {
	Graph       *Graph
	BoundaryIn  []Segment
	Outputs     []Segment
	InstanceLen int
}

// Partitioning is a complete sharded decomposition of a model graph.
type Partitioning struct {
	Model  string
	Shards int
	Chunks []Chunk
	Wires  []Wire
	Finals []FinalOutput
	// BoundaryElems is the total number of scalar activations crossing
	// chunk boundaries (the re-committed values the verifier checks).
	BoundaryElems int
}

// Partition splits the graph into `shards` contiguous chunks balanced by
// per-node flops, choosing among near-balanced cut positions the ones that
// minimize boundary-crossing elements. The sample input only supplies
// tensor shapes (shapes are input-independent); the resulting decomposition
// is deterministic per (graph, shards). One shard yields a single chunk whose
// graph is g itself.
func Partition(g *Graph, sample *Input, shards int) (*Partitioning, error) {
	if shards < 1 {
		return nil, fmt.Errorf("model: shard count %d must be positive", shards)
	}
	if shards > len(g.Nodes) {
		return nil, fmt.Errorf("model: cannot split %d nodes of %s into %d shards", len(g.Nodes), g.Name, shards)
	}
	env, err := g.RunFloat(sample)
	if err != nil {
		return nil, fmt.Errorf("model: partitioning %s: %w", g.Name, err)
	}
	elems := func(t string) int {
		if ft, ok := env[t]; ok {
			return ft.Len()
		}
		return 0
	}

	// Producer index per tensor: -1 for graph inputs, node index otherwise.
	producer := map[string]int{}
	for _, spec := range g.Inputs {
		producer[spec.Name] = -1
	}
	for i, n := range g.Nodes {
		producer[n.Output] = i
	}
	// Consumer node indices per tensor (weights are separate fields and
	// never appear in Node.Inputs).
	consumers := map[string][]int{}
	for i, n := range g.Nodes {
		for _, t := range n.Inputs {
			consumers[t] = append(consumers[t], i)
		}
	}

	cuts := chooseCuts(g, env, shards, producer, consumers)

	// chunkOf maps node index -> chunk index.
	chunkOf := make([]int, len(g.Nodes))
	for c := 0; c < shards; c++ {
		lo, hi := rangeOf(cuts, c, len(g.Nodes))
		for j := lo; j < hi; j++ {
			chunkOf[j] = c
		}
	}
	// Graph inputs are owned by the earliest consuming chunk; later
	// consumers receive the (quantized, published) values as act inputs.
	owner := map[string]int{}
	for _, spec := range g.Inputs {
		own := shards // unconsumed inputs get parked in the last chunk
		for _, j := range consumers[spec.Name] {
			if chunkOf[j] < own {
				own = chunkOf[j]
			}
		}
		if own == shards {
			own = shards - 1
		}
		if spec.Kind == IDInput {
			// An id input is private; re-supplying it to a second chunk
			// would leave cross-chunk consistency unenforced.
			for _, j := range consumers[spec.Name] {
				if chunkOf[j] != own {
					return nil, fmt.Errorf("model: id input %q of %s is consumed by multiple chunks; choose a different shard count", spec.Name, g.Name)
				}
			}
		}
		owner[spec.Name] = own
	}

	// consumerChunks(t) lists the distinct chunks consuming t, ascending.
	consumerChunks := func(t string) []int {
		seen := map[int]bool{}
		var out []int
		for _, j := range consumers[t] {
			if c := chunkOf[j]; !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
		sort.Ints(out)
		return out
	}
	// homeOf returns the chunk whose instance column carries tensor t's
	// committed values (its producing chunk, or the owner for inputs).
	homeOf := func(t string) int {
		if p := producer[t]; p >= 0 {
			return chunkOf[p]
		}
		return owner[t]
	}
	// orderKey gives boundary tensors a deterministic order: producing
	// node index (graph inputs first, in spec order).
	orderKey := func(t string) int {
		if p := producer[t]; p >= 0 {
			return len(g.Inputs) + p
		}
		for i, spec := range g.Inputs {
			if spec.Name == t {
				return i
			}
		}
		return len(g.Inputs) + len(g.Nodes)
	}

	// Boundary tensors: committed in their home chunk, re-committed by
	// every later consuming chunk.
	boundaryOut := make([][]string, shards) // per home chunk
	boundaryIn := make([][]string, shards)  // per consuming chunk
	isBoundary := map[string]bool{}
	for t := range consumers {
		home := homeOf(t)
		for _, c := range consumerChunks(t) {
			if c > home {
				if !isBoundary[t] {
					isBoundary[t] = true
					boundaryOut[home] = append(boundaryOut[home], t)
				}
				boundaryIn[c] = append(boundaryIn[c], t)
			}
		}
	}
	for c := 0; c < shards; c++ {
		byKey := func(list []string) {
			sort.Slice(list, func(i, j int) bool {
				ki, kj := orderKey(list[i]), orderKey(list[j])
				if ki != kj {
					return ki < kj
				}
				return list[i] < list[j]
			})
		}
		byKey(boundaryOut[c])
		byKey(boundaryIn[c])
	}

	part := &Partitioning{Model: g.Name, Shards: shards, Chunks: make([]Chunk, shards)}
	finalsOf := make([][]string, shards)
	for _, t := range g.Outputs {
		finalsOf[homeOf(t)] = append(finalsOf[homeOf(t)], t)
	}

	for c := 0; c < shards; c++ {
		// One shard is no split at all: the chunk is the caller's graph itself,
		// so it hashes, stores and proves exactly as the unsharded circuit.
		cg := g
		if shards > 1 {
			lo, hi := rangeOf(cuts, c, len(g.Nodes))
			cg = &Graph{
				Name:    fmt.Sprintf("%s#%d/%d", g.Name, c, shards),
				Weights: map[string]Weight{},
			}
			// Owned original inputs, in full-graph spec order.
			for _, spec := range g.Inputs {
				if owner[spec.Name] == c {
					cg.Inputs = append(cg.Inputs, spec)
				}
			}
			// Boundary act inputs, in deterministic order.
			for _, t := range boundaryIn[c] {
				cg.Inputs = append(cg.Inputs, InputSpec{
					Name:  t,
					Shape: append([]int(nil), env[t].Shape...),
					Kind:  ActInput,
				})
			}
			for j := lo; j < hi; j++ {
				n := g.Nodes[j]
				cg.Nodes = append(cg.Nodes, n)
				for _, w := range []string{n.Weight, n.Weight2, n.Bias} {
					if w != "" {
						cg.Weights[w] = g.Weights[w]
					}
				}
			}
			// Chunk outputs: boundary activations first, then finals not
			// already published as boundaries.
			inOutputs := map[string]bool{}
			for _, t := range boundaryOut[c] {
				cg.Outputs = append(cg.Outputs, t)
				inOutputs[t] = true
			}
			for _, t := range finalsOf[c] {
				if !inOutputs[t] {
					cg.Outputs = append(cg.Outputs, t)
					inOutputs[t] = true
				}
			}
			if err := cg.Validate(); err != nil {
				return nil, fmt.Errorf("model: partitioning %s chunk %d: %w", g.Name, c, err)
			}
		}

		// Instance layout: act inputs (in cg.Inputs order — exactly how
		// RunCircuit publishes them), then outputs.
		ch := Chunk{Graph: cg}
		off := 0
		for _, spec := range cg.Inputs {
			if spec.Kind != ActInput {
				continue
			}
			n := elems(spec.Name)
			ch.BoundaryIn = append(ch.BoundaryIn, Segment{Tensor: spec.Name, Offset: off, Elems: n})
			off += n
		}
		for _, t := range cg.Outputs {
			n := elems(t)
			ch.Outputs = append(ch.Outputs, Segment{Tensor: t, Offset: off, Elems: n})
			off += n
		}
		ch.InstanceLen = off
		part.Chunks[c] = ch
	}

	// Wires: producer instance segment -> each consumer's act segment.
	segIn := func(c int, t string) (Segment, bool) {
		for _, s := range part.Chunks[c].BoundaryIn {
			if s.Tensor == t {
				return s, true
			}
		}
		return Segment{}, false
	}
	segOut := func(c int, t string) (Segment, bool) {
		for _, s := range part.Chunks[c].Outputs {
			if s.Tensor == t {
				return s, true
			}
		}
		return Segment{}, false
	}
	for c := 0; c < shards; c++ {
		for _, t := range boundaryIn[c] {
			home := homeOf(t)
			from, ok1 := segOut(home, t)
			to, ok2 := segIn(c, t)
			if !ok1 || !ok2 || from.Elems != to.Elems {
				return nil, fmt.Errorf("model: partitioning %s: inconsistent boundary wiring for %q", g.Name, t)
			}
			part.Wires = append(part.Wires, Wire{
				Tensor: t, From: home, FromOff: from.Offset,
				To: c, ToOff: to.Offset, Elems: from.Elems,
			})
			part.BoundaryElems += from.Elems
		}
	}
	for _, t := range g.Outputs {
		home := homeOf(t)
		s, ok := segOut(home, t)
		if !ok {
			return nil, fmt.Errorf("model: partitioning %s: output %q not published by chunk %d", g.Name, t, home)
		}
		part.Finals = append(part.Finals, FinalOutput{Tensor: t, Chunk: home, Offset: s.Offset, Elems: s.Elems})
	}
	return part, nil
}

// rangeOf returns chunk c's node range [lo, hi) given the cut positions.
func rangeOf(cuts []int, c, nNodes int) (lo, hi int) {
	lo = 0
	if c > 0 {
		lo = cuts[c-1]
	}
	hi = nNodes
	if c < len(cuts) {
		hi = cuts[c]
	}
	return lo, hi
}

// chooseCuts picks shards-1 strictly increasing cut positions. Each cut i
// targets the flop-balanced ideal (total*i/shards); among candidate
// positions the one with cumulative flops closest to the ideal wins, with
// fewer boundary-crossing elements as the tiebreak.
func chooseCuts(g *Graph, env map[string]*FT, shards int, producer map[string]int, consumers map[string][]int) []int {
	nNodes := len(g.Nodes)
	flops := make([]int64, nNodes)
	var total int64
	for i, n := range g.Nodes {
		flops[i] = g.nodeFlops(n, env)
		total += flops[i]
	}
	// cum[p] = flops of nodes[0:p].
	cum := make([]int64, nNodes+1)
	for i := 0; i < nNodes; i++ {
		cum[i+1] = cum[i] + flops[i]
	}
	// crossing[p] = elements of tensors produced before p (or graph
	// inputs) and consumed at or after p.
	crossing := func(p int) int {
		n := 0
		for t, cons := range consumers {
			prodBefore := producer[t] < p
			if !prodBefore {
				continue
			}
			for _, j := range cons {
				if j >= p {
					if ft, ok := env[t]; ok {
						n += ft.Len()
					}
					break
				}
			}
		}
		return n
	}
	cuts := make([]int, 0, shards-1)
	prev := 0
	for i := 1; i < shards; i++ {
		ideal := total * int64(i) / int64(shards)
		// Leave room for the remaining shards-i cuts.
		loP, hiP := prev+1, nNodes-(shards-i)
		best, bestDiff, bestCross := loP, int64(-1), 0
		for p := loP; p <= hiP; p++ {
			diff := cum[p] - ideal
			if diff < 0 {
				diff = -diff
			}
			cross := crossing(p)
			if bestDiff < 0 || diff < bestDiff || (diff == bestDiff && cross < bestCross) {
				best, bestDiff, bestCross = p, diff, cross
			}
		}
		cuts = append(cuts, best)
		prev = best
	}
	return cuts
}

// ChunkInput assembles the concrete input for chunk c: original inputs
// owned by the chunk are drawn from in, boundary activations from acts
// (keyed by tensor name — the producing chunk's published values).
func (p *Partitioning) ChunkInput(c int, in *Input, acts map[string][]int64) (*Input, error) {
	ci := NewInput()
	for _, spec := range p.Chunks[c].Graph.Inputs {
		switch spec.Kind {
		case FloatInput:
			v, ok := in.Floats[spec.Name]
			if !ok {
				return nil, fmt.Errorf("model: missing float input %q for chunk %d", spec.Name, c)
			}
			ci.Floats[spec.Name] = v
		case IDInput:
			v, ok := in.IDs[spec.Name]
			if !ok {
				return nil, fmt.Errorf("model: missing id input %q for chunk %d", spec.Name, c)
			}
			ci.IDs[spec.Name] = v
		case ActInput:
			v, ok := acts[spec.Name]
			if !ok {
				return nil, fmt.Errorf("model: missing boundary activation %q for chunk %d", spec.Name, c)
			}
			ci.Acts[spec.Name] = v
		}
	}
	return ci, nil
}
