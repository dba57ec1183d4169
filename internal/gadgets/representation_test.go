package gadgets

import (
	"testing"

	"repro/internal/fixedpoint"
)

// TestReLURepresentationTradeoff reproduces the §3 toy analysis: the lookup
// representation of ReLU costs 2 cells per op plus a 2^b-row table, while
// the bit-decomposition costs b+2 cells per op and no table. With few ReLUs
// the table dominates the grid; with many ReLUs the lookup wins — exactly
// the global trade-off the optimizer navigates.
func TestReLURepresentationTradeoff(t *testing.T) {
	fp := fixedpoint.Params{ScaleBits: 4, LookupBits: 10} // 1024-row table
	build := func(strategy ReLUStrategy, numCols, ops int) int {
		cfg := DefaultConfig(numCols, fp)
		cfg.ReLU = strategy
		b := NewBuilder(cfg)
		for i := 0; i < ops; i++ {
			b.ReLU(b.Witness(int64(i%16 - 8)))
		}
		if b.Err() != nil {
			t.Fatal(b.Err())
		}
		return b.MinN()
	}

	// Few ReLUs: decomposition avoids the table and fits a smaller grid.
	fewLookup := build(ReLULookup, 24, 4)
	fewDecomp := build(ReLUDecomp, 24, 4)
	if fewDecomp >= fewLookup {
		t.Fatalf("few ops: decomposition grid %d should beat lookup grid %d (table-dominated)",
			fewDecomp, fewLookup)
	}

	// Many ReLUs: decomposition's b+2 cells per op explodes the row count
	// past the table size and the lookup representation wins.
	manyLookup := build(ReLULookup, 24, 6000)
	manyDecomp := build(ReLUDecomp, 24, 6000)
	if manyLookup >= manyDecomp {
		t.Fatalf("many ops: lookup grid %d should beat decomposition grid %d",
			manyLookup, manyDecomp)
	}
	t.Logf("4 relus: lookup N=%d decomp N=%d; 6000 relus: lookup N=%d decomp N=%d",
		fewLookup, fewDecomp, manyLookup, manyDecomp)
}

// TestGatherVsConstantsTradeoff: dynamic-index gathers must cost rows
// (lookup sites) while constant-index access through the constants column
// costs none — the "shape operations are free" principle only applies when
// indices are static.
func TestGatherVsConstantsTradeoff(t *testing.T) {
	fp := fixedpoint.Params{ScaleBits: 4, LookupBits: 8}
	cfg := DefaultConfig(10, fp)
	b := NewBuilder(cfg)
	data := make([]int64, 16*4)
	for i := range data {
		data[i] = int64(i)
	}
	b.RegisterTable("emb", 16, 4, data)
	before := b.Rows()
	b.Gather("emb", b.Witness(3))
	if b.Rows() != before+1 {
		t.Fatalf("gather should cost exactly one row, went %d -> %d", before, b.Rows())
	}
	// Constants are free (no rows).
	before = b.Rows()
	for i := 0; i < 50; i++ {
		b.Constant(int64(i))
	}
	if b.Rows() != before {
		t.Fatal("constants must not consume grid rows")
	}
}

func TestGatherRejectsBadShapes(t *testing.T) {
	fp := fixedpoint.Params{ScaleBits: 4, LookupBits: 8}
	b := NewBuilder(DefaultConfig(6, fp))
	// dim+1 > NumCols.
	b.RegisterTable("wide", 4, 8, make([]int64, 32))
	if b.Err() == nil {
		t.Fatal("accepted table wider than columns")
	}
	b2 := NewBuilder(DefaultConfig(10, fp))
	b2.RegisterTable("sz", 4, 2, make([]int64, 7))
	if b2.Err() == nil {
		t.Fatal("accepted size-mismatched table")
	}
	b5 := NewBuilder(DefaultConfig(10, fp))
	b5.RegisterTable("empty", 0, 2, nil)
	if b5.Err() == nil {
		t.Fatal("accepted empty table")
	}
	b3 := NewBuilder(DefaultConfig(10, fp))
	b3.Gather("missing", b3.Witness(0))
	if b3.Err() == nil {
		t.Fatal("accepted gather from unregistered table")
	}
	b4 := NewBuilder(DefaultConfig(10, fp))
	b4.RegisterTable("t", 4, 2, make([]int64, 8))
	b4.Gather("t", b4.Witness(9))
	if b4.Err() == nil {
		t.Fatal("accepted out-of-range id")
	}
}
