package pcs

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/curve"
	"repro/internal/ff"
)

// plainCommit commits through the generic MSM kernel over the scheme's
// basis, bypassing the fixed-base tables: the reference the table path must
// equal.
func plainCommit(s Scheme, p []ff.Element) curve.Affine {
	return curve.MSM(prefixOf(s).basis[:len(p)], p).ToAffine()
}

// prefixOf returns s's share of its backend's setup record.
func prefixOf(s Scheme) prefix {
	switch s := s.(type) {
	case *KZGScheme:
		return s.prefix
	case *IPAScheme:
		return s.prefix
	}
	panic("pcs: no setup prefix for this scheme")
}

// TestCommitTableMatchesPlainMSM pins the routing invariant: a commitment
// served by the fixed-base table is the same group element (and therefore
// the same proof bytes) as the generic-kernel commitment, at sizes on both
// sides of the commitTableMinLen gate.
func TestCommitTableMatchesPlainMSM(t *testing.T) {
	ResetCommitTables()
	for _, s := range schemes(t, 256) {
		for _, n := range []int{1, commitTableMinLen - 1, commitTableMinLen, 200, 256} {
			p := randPoly(n)
			warm, plain := s.Commit(p), plainCommit(s, p)
			if !warm.Equal(&plain) {
				t.Fatalf("%s n=%d: table commitment differs from plain MSM", s.Backend(), n)
			}
		}
	}
}

// TestConcurrentCommitSharedTable hammers one lazily-built table from many
// goroutines so `make race` covers the double-checked build in
// commitTableCache.get: every commitment must match the generic kernel and
// the table must be built exactly once per backend.
func TestConcurrentCommitSharedTable(t *testing.T) {
	ResetCommitTables()
	before := SetupWorkSnapshot()
	for _, s := range schemes(t, 128) {
		p := randPoly(128)
		want := plainCommit(s, p)

		const goroutines = 8
		got := make([]curve.Affine, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got[g] = s.Commit(p)
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			if !got[g].Equal(&want) {
				t.Fatalf("%s: concurrent commitment %d differs from plain MSM", s.Backend(), g)
			}
		}
	}
	d := SetupWorkSnapshot().Sub(before)
	if d.CommitTableBuilds != 2 {
		t.Fatalf("table builds = %d, want exactly 1 per backend", d.CommitTableBuilds)
	}
	if d.CommitTableHits == 0 {
		t.Fatal("no commitments were served by the tables")
	}
}

// TestCommitTableSetupWorkAccounting checks the /stats contract: builds are
// setup work (IsZero false), hits are the amortized warm path (IsZero true).
func TestCommitTableSetupWorkAccounting(t *testing.T) {
	s := NewKZG(128)
	p := randPoly(128)
	ResetCommitTables()
	before := SetupWorkSnapshot()
	s.Commit(p)
	afterBuild := SetupWorkSnapshot()
	d := afterBuild.Sub(before)
	if d.CommitTableBuilds != 1 || d.CommitTableHits != 1 {
		t.Fatalf("first commit: builds=%d hits=%d, want 1/1", d.CommitTableBuilds, d.CommitTableHits)
	}
	if d.IsZero() {
		t.Fatal("a table build must count as setup work")
	}
	s.Commit(p)
	warm := SetupWorkSnapshot().Sub(afterBuild)
	if warm.CommitTableBuilds != 0 || warm.CommitTableHits != 1 {
		t.Fatalf("warm commit: builds=%d hits=%d, want 0/1", warm.CommitTableBuilds, warm.CommitTableHits)
	}
	if !warm.IsZero() {
		t.Fatal("a table hit must not count as setup work")
	}
}

// BenchmarkCommit measures both backends' commitment path cold (table built
// per iteration) and warm (table amortized — the steady state for a loaded
// key); BenchmarkCommitLagrange covers KZG's commits from evaluations. Sizes
// above 2^12 are skipped in -short mode to keep bench-smoke fast. Sizes run
// ascending so the cold build at size n is over an n-point basis, matching a
// key loaded at that size.
func BenchmarkCommit(b *testing.B) {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16}
	for _, backend := range []Backend{KZG, IPA} {
		for _, n := range sizes {
			if testing.Short() && n > 1<<12 {
				continue
			}
			s, err := New(backend, n)
			if err != nil {
				b.Fatal(err)
			}
			p := randPoly(n)
			k := 0
			for 1<<k < n {
				k++
			}
			b.Run(fmt.Sprintf("%s/2^%d/cold", backend, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ResetCommitTables()
					s.Commit(p)
				}
			})
			b.Run(fmt.Sprintf("%s/2^%d/warm", backend, k), func(b *testing.B) {
				s.Commit(p) // ensure the table is built outside the timed loop
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Commit(p)
				}
			})
		}
	}
}

// BenchmarkCommitNoTable is the baseline the warm path is compared against:
// the same commitment through the generic GLV kernel.
func BenchmarkCommitNoTable(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12} {
		s := NewKZG(n)
		p := randPoly(n)
		k := 0
		for 1<<k < n {
			k++
		}
		b.Run(fmt.Sprintf("KZG/2^%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				curve.MSM(s.basis, p)
			}
		})
	}
}
