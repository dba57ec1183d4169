package gadgets

import (
	"testing"

	"repro/internal/fixedpoint"
)

// TestUnusedSlotsSatisfyEveryKind takes every catalog entry in turn and
// checks a grid whose one row of that kind has a single allocated slot: the
// row's other slots hold the entry's padding and must satisfy its gate and
// lookups. The kinds come from the catalog, so a kind added later is
// checked without editing this test.
func TestUnusedSlotsSatisfyEveryKind(t *testing.T) {
	// Two bit-decomposition slots fit 14 columns (LookupBits + 2 = 7 cells).
	fp := fixedpoint.Params{ScaleBits: 2, LookupBits: 5}
	if fp.Fixed(fixedpoint.Exp, 0) == 0 {
		t.Fatal("exp(0) must be nonzero to exercise nonlinearity padding")
	}
	builder := func() *Builder {
		b := NewBuilder(DefaultConfig(14, fp))
		b.RegisterTable("emb", 3, 2, []int64{4, -5, 6, 7, 8, 9})
		b.nlKind(fixedpoint.Exp)
		b.nlKind(fixedpoint.ReLU)
		return b
	}
	catalog := builder().catalog
	for _, k := range []Kind{KindDivRound, KindDivFloor, KindRange, KindReluDecomp,
		KindAddMR, KindMaxMR, KindDotMR, gatherKind("emb"), NLKind(fixedpoint.Exp)} {
		if catalog[k] == nil {
			t.Fatalf("catalog has no %s entry", k)
		}
	}
	for kind := range catalog {
		t.Run(string(kind), func(t *testing.T) {
			b := builder()
			b.slot(kind)
			if st := b.Stats(); st.Ops[kind] != 1 || st.RowsByKind[kind] != b.catalog[kind].rows {
				t.Fatalf("stats after one slot: %d ops in %d rows", st.Ops[kind], st.RowsByKind[kind])
			}
			checkRows(t, b)
		})
	}
}
