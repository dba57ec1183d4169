package zkml

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ff"
	"repro/internal/plonkish"
)

// makeWideProof builds a structurally valid proof with nCols one-element
// instance columns (ExportProof touches nothing else on the System).
func makeWideProof(nCols int) *Proof {
	inst := make([][]ff.Element, nCols)
	for i := range inst {
		inst[i] = []ff.Element{ff.NewElement(uint64(i + 1))}
	}
	return &Proof{Proof: new(plonkish.Proof), Instance: inst}
}

// TestExportProofTooManyColumns is the regression test for the header's
// one-byte column count: 256 columns used to be written as byte 0 and
// silently dropped every public value on import. The export must refuse.
func TestExportProofTooManyColumns(t *testing.T) {
	var s System
	_, err := s.ExportProof(makeWideProof(256))
	if err == nil {
		t.Fatal("ExportProof accepted 256 instance columns")
	}
	if !strings.Contains(err.Error(), "instance columns") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// 255 columns is the format's ceiling and must still round-trip intact.
func TestExportProofMaxColumnsRoundTrips(t *testing.T) {
	var s System
	p := makeWideProof(255)
	data, err := s.ExportProof(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.ImportProof(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Instance) != 255 {
		t.Fatalf("round trip kept %d columns, want 255", len(back.Instance))
	}
	for i, col := range back.Instance {
		if len(col) != 1 || !col[0].Equal(&p.Instance[i][0]) {
			t.Fatalf("column %d corrupted in round trip", i)
		}
	}
}

// FuzzImportProof feeds arbitrary bytes to the exported-proof decoder of a
// one-chunk system and of a two-chunk chain: the code `zkmld` /verify and
// `zkml verify -in` run on outside bytes. Neither may panic or allocate more
// than a constant multiple of the input length, every rejection must wrap
// ErrMalformedProof, and anything accepted must re-export byte-identically.
// The decoders read nothing of a system but its chunk count, so bare
// systems suffice.
func FuzzImportProof(f *testing.F) {
	chain := &ShardedSystem{Chunks: make([]*System, 2)}
	two, err := chain.ExportProof(&ShardedProof{Chunks: []*Proof{makeWideProof(1), makeWideProof(2)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(two)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range []*ShardedSystem{{Chunks: make([]*System, 1)}, chain} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err := s.ImportProof(data)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<16 {
				t.Fatalf("%d-chunk import of %d bytes allocated %d", len(s.Chunks), len(data), alloc)
			}
			if err != nil {
				if !errors.Is(err, ErrMalformedProof) {
					t.Fatalf("%d-chunk import error does not wrap ErrMalformedProof: %v", len(s.Chunks), err)
				}
				continue
			}
			out, err := s.ExportProof(p)
			if err != nil {
				t.Fatalf("%d-chunk import accepted a proof that does not re-export: %v", len(s.Chunks), err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%d-chunk import accepted a non-canonical encoding: %d bytes in, %d out", len(s.Chunks), len(data), len(out))
			}
		}
	})
}
