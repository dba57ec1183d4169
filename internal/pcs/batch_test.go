package pcs

import (
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/parallel"
)

// halfColumn is column(shape, n) with one half zeroed: the shape of an IPA
// round's L and R scalars, and of a lookup's m past its table rows.
func halfColumn(shape string, n int, keepHigh bool) []ff.Element {
	v := column(shape, n)
	if keepHigh {
		clear(v[:n/2])
	} else {
		clear(v[n/2:])
	}
	return v
}

// TestCommitBatchMatchesPerVector holds CommitBatch to one Commit or
// CommitLagrange per vector, in input order, on both backends and at several
// worker counts: for no vectors, one, an all-zero one, vectors shorter than
// commitTableMinLen (the generic kernel's inputs), and vectors non-zero in
// one half only.
func TestCommitBatchMatchesPerVector(t *testing.T) {
	defer parallel.SetWorkers(0)
	const n = 256
	short := commitTableMinLen / 4
	cases := map[string][][]ff.Element{
		"none": nil,
		"one":  {column("dense", n)},
		"zero": {column("zero", n), column("small", n), column("zero", n)},
		"short": {column("dense", short), column("small", short),
			column("sparse", short)},
		"half": {halfColumn("dense", n, false), halfColumn("dense", n, true),
			halfColumn("running", n, true), halfColumn("small", n, false)},
	}
	for _, b := range []Backend{KZG, IPA} {
		s, err := New(b, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			parallel.SetWorkers(workers)
			for name, vecs := range cases {
				for _, lagrange := range []bool{false, true} {
					got := CommitBatch(s, vecs, lagrange)
					if len(got) != len(vecs) {
						t.Fatalf("%s/%s/lagrange=%v: %d commitments for %d vectors", b, name, lagrange, len(got), len(vecs))
					}
					for i, v := range vecs {
						want := s.Commit(v)
						if lagrange {
							want = s.CommitLagrange(v)
						}
						if !got[i].Equal(&want) {
							t.Fatalf("%s/%s/lagrange=%v/workers=%d: commitment %d differs from its own commit", b, name, lagrange, workers, i)
						}
					}
				}
			}
		}
	}
}

// TestCommitBatchBuildsOnce commits a 41-vector batch right after the
// tables and Lagrange bases are dropped, on both backends: the batch
// derives the basis once (n points) and builds one table — its warm step
// does that work before the fan-out, and every commit finds it done — and a
// second batch does no set-up work at all.
func TestCommitBatchBuildsOnce(t *testing.T) {
	const n, count = 1 << 9, 41
	derived := map[Backend]func(SetupWork) int64{
		KZG: func(w SetupWork) int64 { return w.KZGLagrangeDerived },
		IPA: func(w SetupWork) int64 { return w.IPALagrangeDerived },
	}
	vecs := make([][]ff.Element, count)
	for i := range vecs {
		vecs[i] = column(columnShapes[i%len(columnShapes)], n)
	}
	for _, b := range []Backend{KZG, IPA} {
		s, err := New(b, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, lagrange := range []bool{true, false} {
			ResetCommitTables()
			ResetLagrangeBases()
			before := SetupWorkSnapshot()
			got := CommitBatch(s, vecs, lagrange)
			d := SetupWorkSnapshot().Sub(before)
			wantDerived := int64(0)
			if lagrange {
				wantDerived = n
			}
			if d.CommitTableBuilds != 1 || derived[b](d) != wantDerived || d.CommitTableHits != count {
				t.Fatalf("%s/lagrange=%v: batch built %d tables, derived %d points, hit %d times; want 1, %d, %d",
					b, lagrange, d.CommitTableBuilds, derived[b](d), d.CommitTableHits, wantDerived, count)
			}
			settled := SetupWorkSnapshot()
			if prefixOf(s).warm(n, lagrange); SetupWorkSnapshot() != settled {
				t.Fatalf("%s/lagrange=%v: warm step after a batch did work", b, lagrange)
			}
			warm := SetupWorkSnapshot()
			again := CommitBatch(s, vecs, lagrange)
			if w := SetupWorkSnapshot().Sub(warm); !w.IsZero() {
				t.Fatalf("%s/lagrange=%v: warm batch did set-up work: %+v", b, lagrange, w)
			}
			for i := range got {
				var want curve.Affine
				if lagrange {
					want = s.CommitLagrange(vecs[i])
				} else {
					want = s.Commit(vecs[i])
				}
				if !got[i].Equal(&want) || !again[i].Equal(&want) {
					t.Fatalf("%s/lagrange=%v: commitment %d is wrong", b, lagrange, i)
				}
			}
		}
	}
}
