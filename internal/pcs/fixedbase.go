package pcs

import (
	"sync"
	"sync/atomic"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/parallel"
)

// Commitment MSMs always run against the scheme's SRS basis — the KZG
// powers-of-tau or the IPA hash-to-curve generators — which never changes
// for a loaded key. Each backend's setup record (srs.go) therefore keeps one
// lazily-built curve.FixedBaseTable over its basis and routes every Commit
// through it (and one more per domain size over its Lagrange basis, for
// columns committed from their evaluations; see lagrange.go), so the table
// construction cost is paid once per key size and amortized across all
// subsequent commitments (every witness column, lookup, permutation, and
// quotient piece of every proof). Builds and hits are counted in setupWork
// so the zkmld /stats endpoint and the warm-path tests can see exactly when
// table work happens.

// commitTableMinLen is the smallest commitment worth routing through the
// table; below it the generic kernel's small-n path wins and a table build
// would never pay for itself.
const commitTableMinLen = 64

// ResetCommitTables drops the cached commitment tables so the next Commit
// rebuilds them. Benchmarks use this to measure the cold path.
func ResetCommitTables() {
	for i := range setups {
		s := &setups[i]
		s.tables.reset()
		for j := range s.lagrange {
			if l := s.lagrange[j].Load(); l != nil {
				l.tables.reset()
			}
		}
	}
}

// commitTableCache lazily builds and caches one fixed-base table per
// basis. The atomic pointer serves the warm path without locking;
// the mutex serializes builds so concurrent first Commits construct the
// table exactly once (double-checked under the lock).
type commitTableCache struct {
	mu       sync.Mutex
	table    atomic.Pointer[curve.FixedBaseTable]
	declined int // basis length whose build exceeded the memory budget
}

func (cc *commitTableCache) reset() {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.table.Store(nil)
	cc.declined = 0
}

// get returns a table covering at least n basis points, building one over
// the full current basis if needed. Returns nil when the build was declined
// for budget (memoized per basis length, so the budget check is not
// repeated on every Commit).
func (cc *commitTableCache) get(basis []curve.Affine, n int) *curve.FixedBaseTable {
	if t := cc.table.Load(); t != nil && t.Len() >= n {
		return t
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if t := cc.table.Load(); t != nil && t.Len() >= n {
		return t
	}
	if cc.declined >= len(basis) {
		return nil
	}
	// Build over the caller's whole basis, so one build serves every
	// commitment up to its length.
	t := curve.NewFixedBaseTable(basis)
	if t == nil {
		cc.declined = len(basis)
		return nil
	}
	setupWork.commitTableBuilds.Add(1)
	kernelTrace.Load().RecordTableBuild()
	cc.table.Store(t)
	return t
}

// commitMSM is the shared Commit kernel: the fixed-base table when it
// applies, the generic MSM otherwise.
func commitMSM(cc *commitTableCache, basis []curve.Affine, p []ff.Element) curve.Affine {
	if len(p) >= commitTableMinLen {
		if t := cc.get(basis, len(p)); t != nil {
			setupWork.commitTableHits.Add(1)
			return t.MSM(p).ToAffine()
		}
	}
	return curve.MSM(basis[:len(p)], p).ToAffine()
}

// fixedBase is a w=8 comb table for one point G: windows[w][d] = d·2^(8w)·G.
// It is not a curve.FixedBaseTable, which computes one sum Σ sᵢ·Bᵢ; the comb
// computes n separate multiples of one point. KZG keeps one for the
// generator (srs.go), built on first use and reused by every SRS growth and
// Lagrange-basis derivation. It is process-local: rebuilding it (~10 ms) is
// cheaper than decompressing a stored copy.
type fixedBase struct {
	windows [32][256]curve.Affine
}

func fixedBaseTable(g curve.Affine) *fixedBase {
	t := &fixedBase{}
	base := g.ToJac()
	for w := 0; w < 32; w++ {
		var acc curve.Jac
		jacs := make([]curve.Jac, 256)
		for d := 0; d < 256; d++ {
			jacs[d] = acc
			acc.AddAssign(&base)
		}
		aff := curve.BatchToAffine(jacs)
		copy(t.windows[w][:], aff)
		base = acc // base *= 2^8 after 256 additions
	}
	return t
}

func (t *fixedBase) mul(s *ff.Element) curve.Jac {
	b := s.Bytes() // big-endian 32 bytes
	var acc curve.Jac
	for w := 0; w < 32; w++ {
		d := b[31-w] // little-endian byte w
		if d != 0 {
			acc.AddMixed(&t.windows[w][d])
		}
	}
	return acc
}

// mulAll returns sᵢ·G for every scalar, split across the worker pool.
func (t *fixedBase) mulAll(scalars []ff.Element) []curve.Affine {
	jacs := make([]curve.Jac, len(scalars))
	parallel.Range(len(jacs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			jacs[i] = t.mul(&scalars[i])
		}
	})
	return curve.BatchToAffine(jacs)
}
