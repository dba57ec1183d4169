package model

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// partitionFor partitions a bundled model or fails the test.
func partitionFor(t *testing.T, name string, shards int) (*Graph, *Input, *Partitioning) {
	t.Helper()
	spec, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build()
	in := spec.Input(1)
	part, err := Partition(g, in, shards)
	if err != nil {
		t.Fatal(err)
	}
	return g, in, part
}

func TestPartitionInvariants(t *testing.T) {
	for _, shards := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("mnist-%d", shards), func(t *testing.T) {
			g, _, part := partitionFor(t, "mnist", shards)
			if len(part.Chunks) != shards {
				t.Fatalf("got %d chunks, want %d", len(part.Chunks), shards)
			}
			// Chunks cover the node list contiguously and completely.
			total := 0
			for c, ch := range part.Chunks {
				if len(ch.Graph.Nodes) == 0 {
					t.Fatalf("chunk %d is empty", c)
				}
				if want := fmt.Sprintf("%s#%d/%d", g.Name, c, shards); ch.Graph.Name != want {
					t.Fatalf("chunk %d named %q, want %q", c, ch.Graph.Name, want)
				}
				for _, n := range ch.Graph.Nodes {
					if !reflect.DeepEqual(n, g.Nodes[total]) {
						t.Fatalf("chunk %d node %q out of order with full graph", c, n.Output)
					}
					total++
				}
			}
			if total != len(g.Nodes) {
				t.Fatalf("chunks cover %d nodes, graph has %d", total, len(g.Nodes))
			}
			// The instance layout is contiguous: act-input segments first,
			// then outputs, ending at InstanceLen.
			for c, ch := range part.Chunks {
				off := 0
				for _, s := range append(append([]Segment{}, ch.BoundaryIn...), ch.Outputs...) {
					if s.Offset != off || s.Elems <= 0 {
						t.Fatalf("chunk %d segment %q at offset %d (want %d), %d elems", c, s.Tensor, s.Offset, off, s.Elems)
					}
					off += s.Elems
				}
				if off != ch.InstanceLen {
					t.Fatalf("chunk %d segments end at %d, InstanceLen %d", c, off, ch.InstanceLen)
				}
			}
			// Every wire goes strictly forward with matching element counts
			// on both ends, and BoundaryElems sums them.
			sum := 0
			for _, w := range part.Wires {
				if w.From >= w.To {
					t.Fatalf("wire %q goes backward: chunk %d -> %d", w.Tensor, w.From, w.To)
				}
				if w.FromOff+w.Elems > part.Chunks[w.From].InstanceLen ||
					w.ToOff+w.Elems > part.Chunks[w.To].InstanceLen {
					t.Fatalf("wire %q overflows an instance column", w.Tensor)
				}
				sum += w.Elems
			}
			if sum != part.BoundaryElems {
				t.Fatalf("BoundaryElems %d != wire sum %d", part.BoundaryElems, sum)
			}
			if shards > 1 && part.BoundaryElems == 0 {
				t.Fatal("no boundary activations cross the cuts")
			}
			// Every full-graph output is located by a Final.
			if len(part.Finals) != len(g.Outputs) {
				t.Fatalf("%d finals for %d graph outputs", len(part.Finals), len(g.Outputs))
			}
			for i, f := range part.Finals {
				if f.Tensor != g.Outputs[i] {
					t.Fatalf("final %d is %q, want %q", i, f.Tensor, g.Outputs[i])
				}
				if f.Offset+f.Elems > part.Chunks[f.Chunk].InstanceLen {
					t.Fatalf("final %q overflows chunk %d instance", f.Tensor, f.Chunk)
				}
			}
		})
	}
}

func TestPartitionDeterministic(t *testing.T) {
	_, _, a := partitionFor(t, "mnist", 3)
	_, _, b := partitionFor(t, "mnist", 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("partitioning is not deterministic")
	}
}

func TestPartitionShardBounds(t *testing.T) {
	spec, _ := Get("mnist")
	g, in := spec.Build(), spec.Input(1)
	if _, err := Partition(g, in, 0); err == nil {
		t.Fatal("shards=0 accepted")
	}
	if _, err := Partition(g, in, len(g.Nodes)+1); err == nil {
		t.Fatal("more shards than nodes accepted")
	}
	part, err := Partition(g, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Chunks) != 1 || len(part.Wires) != 0 || part.BoundaryElems != 0 {
		t.Fatal("single-shard partition has boundaries")
	}
	// One shard is the caller's graph itself, not a renamed copy: its model
	// hash, and with it the artifact and VK of the unsharded circuit, carry
	// over unchanged.
	if part.Chunks[0].Graph != g {
		t.Fatalf("single-shard chunk is %q, not the graph passed in", part.Chunks[0].Graph.Name)
	}
}

// TestPartitionSharedInputBecomesBoundary: a float input consumed by two
// chunks is owned by the earliest and must reach the later chunk through a
// committed boundary wire (which publicly re-commits the input — the
// documented §16 caveat).
func TestPartitionSharedInputBecomesBoundary(t *testing.T) {
	g := &Graph{
		Name:    "shared-input",
		Inputs:  []InputSpec{{Name: "x", Shape: []int{4}, Kind: FloatInput}},
		Weights: map[string]Weight{},
		Nodes: []Node{
			{Op: "relu", Inputs: []string{"x"}, Output: "a"},
			{Op: "add", Inputs: []string{"a", "x"}, Output: "b"},
		},
		Outputs: []string{"b"},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	in := NewInput()
	in.Floats["x"] = []float64{1, -2, 3, -4}
	part, err := Partition(g, in, 2)
	if err != nil {
		t.Fatal(err)
	}
	wired := map[string]bool{}
	for _, w := range part.Wires {
		wired[w.Tensor] = true
	}
	if !wired["x"] {
		t.Fatalf("shared input x not wired across the cut: %+v", part.Wires)
	}
	if !wired["a"] {
		t.Fatalf("activation a not wired across the cut: %+v", part.Wires)
	}
}

// TestPartitionRejectsSplitIDInput: an id (private, embedding) input
// consumed on both sides of a cut cannot be re-supplied without losing
// cross-chunk consistency, so Partition must refuse.
func TestPartitionRejectsSplitIDInput(t *testing.T) {
	g := &Graph{
		Name:   "split-id",
		Inputs: []InputSpec{{Name: "ids", Shape: []int{2}, Kind: IDInput}},
		Weights: map[string]Weight{
			"emb": {Shape: []int{8, 4}, Data: make([]float64, 32)},
		},
		Nodes: []Node{
			{Op: "embed", Inputs: []string{"ids"}, Output: "a", Weight: "emb"},
			{Op: "embed", Inputs: []string{"ids"}, Output: "b", Weight: "emb"},
		},
		Outputs: []string{"a", "b"},
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	in := NewInput()
	in.IDs["ids"] = []int{1, 3}
	_, err := Partition(g, in, 2)
	if err == nil {
		t.Fatal("id input consumed by two chunks accepted")
	}
	if !strings.Contains(err.Error(), "id input") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestChunkInputAssembly(t *testing.T) {
	_, in, part := partitionFor(t, "mnist", 2)
	// Chunk 0 owns the original inputs and needs no activations.
	c0, err := part.ChunkInput(0, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c0.Floats) == 0 {
		t.Fatal("chunk 0 received no original inputs")
	}
	// Chunk 1 needs its boundary activations; missing ones must error.
	if _, err := part.ChunkInput(1, in, map[string][]int64{}); err == nil {
		t.Fatal("missing boundary activation accepted")
	} else if errors.Is(err, nil) {
		t.Fatal("unreachable")
	}
	acts := map[string][]int64{}
	for _, s := range part.Chunks[1].BoundaryIn {
		acts[s.Tensor] = make([]int64, s.Elems)
	}
	c1, err := part.ChunkInput(1, in, acts)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Acts) != len(part.Chunks[1].BoundaryIn) {
		t.Fatalf("chunk 1 got %d act inputs, want %d", len(c1.Acts), len(part.Chunks[1].BoundaryIn))
	}
}
