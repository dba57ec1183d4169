package pcs

import (
	"sync"
	"sync/atomic"

	"repro/internal/curve"
	"repro/internal/ff"
)

// Commitment MSMs always run against the scheme's SRS basis — the KZG
// powers-of-tau or the IPA hash-to-curve generators — which never changes
// for a loaded key. Each backend therefore keeps one lazily-built
// curve.FixedBaseTable over its process-wide basis and routes every Commit
// through it (KZG keeps one more per domain size over the Lagrange basis,
// for columns committed from their evaluations; see lagrange.go), so the
// table construction cost is paid once per key size and amortized across
// all subsequent commitments (every witness column, lookup, permutation,
// and quotient piece of every proof). Builds and hits are counted in
// setupWork so the zkmld /stats endpoint and the warm-path tests can see
// exactly when table work happens.

// commitTableMinLen is the smallest commitment worth routing through the
// table; below it the generic kernel's small-n path wins and a table build
// would never pay for itself.
const commitTableMinLen = 64

// commitTablesOn gates the fixed-base commit path; disabled it falls back
// to the generic MSM kernel (used by benchmarks and determinism tests).
var commitTablesOn atomic.Bool

func init() { commitTablesOn.Store(true) }

// SetCommitTables toggles the fixed-base commitment tables and returns the
// previous setting.
func SetCommitTables(on bool) bool { return commitTablesOn.Swap(on) }

// ResetCommitTables drops the cached commitment tables so the next Commit
// rebuilds them. Benchmarks use this to measure the cold path.
func ResetCommitTables() {
	caches := []*commitTableCache{&kzgCommitTables, &ipaCommitTables}
	kzgLagrangeMu.Lock()
	for _, l := range kzgLagranges {
		caches = append(caches, &l.tables)
	}
	kzgLagrangeMu.Unlock()
	for _, cc := range caches {
		cc.mu.Lock()
		cc.table.Store(nil)
		cc.declined = 0
		cc.mu.Unlock()
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

var (
	kzgCommitTables commitTableCache
	ipaCommitTables commitTableCache
)

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
	// Build over the whole basis the process has grown so far (all scheme
	// instances slice prefixes of it), so one build serves every key size
	// seen to date.
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
	if commitTablesOn.Load() && curve.GLVEnabled() && len(p) >= commitTableMinLen {
		if t := cc.get(basis, len(p)); t != nil {
			setupWork.commitTableHits.Add(1)
			return t.MSM(p).ToAffine()
		}
	}
	return curve.MSM(basis[:len(p)], p).ToAffine()
}
