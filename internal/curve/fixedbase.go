package curve

import (
	"repro/internal/ff"
	"repro/internal/parallel"
)

// Fixed-base MSM with per-basis precomputed window tables (DESIGN.md §14).
// Commitment MSMs run against a basis that never changes per key (KZG
// powers-of-tau, IPA generators), so the per-window multiples 2^(c·w)·Bᵢ
// can be computed once and reused by every commitment thereafter. With the
// multiples pre-scaled, all windows of all scalars share a single bucket
// set: one bucket pass, one reduction, zero Horner doublings — versus one
// reduction per window and a 254-doubling combine chain in the generic
// kernel. GLV decomposition splits each scalar into two 129-bit halves, so
// a point needs windows for half the bits; its φ-images are stored beside
// them, so the hot loop never multiplies by β. A point therefore holds as
// many entries as a plain table's 254-bit windows would: what GLV saves is
// half the doublings that build them.

// fixedBaseBudgetBytes caps a table's memory. NewFixedBaseTable returns nil
// over budget and callers fall back to the generic kernel; at the cap the
// table holds ~1.8M entries (2^16 basis points at 13-bit windows).
const fixedBaseBudgetBytes = 128 << 20

// fixedBaseEntryBytes is the in-memory size of one table entry (two Fp
// coordinates plus the padded infinity flag).
const fixedBaseEntryBytes = 72

// FixedBaseWindows picks the window width c and per-half-scalar window
// count nw for an n-point fixed-base MSM. With pre-scaled table entries the
// bucket adds (2n·nw, split across workers) trade against each worker's
// private bucket reduction (2·2^(c-1) Jacobian adds), so the best width
// shrinks as the worker count grows; the generic kernel's bucket-memory
// clamp still applies. Exported because the cost model derives the
// fixed-base operation count from the same schedule.
func FixedBaseWindows(n int) (c, nw int) {
	workers := parallel.Workers()
	if workers < 1 || n < msmParallelMin {
		workers = 1
	}
	// Relative costs in field multiplications: a batch-affine bucket add is
	// ~7 (2M + 1S plus its batch-inversion share), a Jacobian reduction add
	// ~16.
	const addCost, reduceCost = 7, 16
	best, bestCost := 2, -1.0
	for w := 2; w <= 16; w++ {
		if fixedBaseEntryBytes<<uint(w-1) > maxBucketBytes {
			break
		}
		windows := glvHalfBits/w + 1
		cost := float64(2*n*windows)/float64(workers)*addCost +
			float64(int64(2)<<uint(w-1))*reduceCost
		if bestCost < 0 || cost < bestCost {
			best, bestCost = w, cost
		}
	}
	return best, glvHalfBits/best + 1
}

// FixedBaseTable holds the precomputed window multiples for one basis:
// tab[(i·nw+w)·2] = 2^(c·w)·Bᵢ and tab[(i·nw+w)·2+1] = φ(2^(c·w)·Bᵢ). The
// table is immutable after construction and safe for concurrent MSM calls.
type FixedBaseTable struct {
	n     int
	c     int
	nw    int
	basis []Affine // copy of the basis, for the generic-kernel fallback
	tab   []Affine
}

// NewFixedBaseTable precomputes the window multiples for basis. Returns nil
// when the table would exceed the memory budget; callers then use the
// generic kernel. Construction cost is ~c·nw doublings per point and
// amortizes over every subsequent MSM against the same basis.
func NewFixedBaseTable(basis []Affine) *FixedBaseTable {
	n := len(basis)
	if n == 0 {
		return nil
	}
	c, nw := FixedBaseWindows(n)
	entries := 2 * n * nw
	if int64(entries)*fixedBaseEntryBytes > fixedBaseBudgetBytes {
		return nil
	}
	t := &FixedBaseTable{
		n:     n,
		c:     c,
		nw:    nw,
		basis: append([]Affine(nil), basis...),
		tab:   make([]Affine, entries),
	}
	build := func(lo, hi int) {
		jacs := make([]Jac, nw)
		for i := lo; i < hi; i++ {
			acc := basis[i].ToJac()
			jacs[0] = acc
			for w := 1; w < nw; w++ {
				for b := 0; b < c; b++ {
					acc.Double()
				}
				jacs[w] = acc
			}
			aff := BatchToAffine(jacs)
			for w := 0; w < nw; w++ {
				t.tab[(i*nw+w)*2] = aff[w]
				t.tab[(i*nw+w)*2+1] = Phi(&aff[w])
			}
		}
	}
	if n >= msmParallelMin && parallel.Workers() > 1 {
		parallel.Range(n, build)
	} else {
		build(0, n)
	}
	return t
}

// Len returns the number of basis points the table covers.
func (t *FixedBaseTable) Len() int { return t.n }

// MSM computes sum scalars[i]·Bᵢ over the table's first len(scalars) basis
// points. The scalar range splits into at most 1 + parallel.Idle() chunks,
// one per worker free when the call starts: an MSM that runs beside others
// in a fan-out keeps one bucket set and one reduction, and one that runs
// alone takes every worker. Each chunk fills a private bucket set and
// reduces it; the partial sums are combined in index order, and since each
// partial is an exact group element the result — and therefore every proof
// byte — is identical at any split. Falls back to the generic kernel when
// the input is tiny.
func (t *FixedBaseTable) MSM(scalars []ff.Element) Jac {
	n := len(scalars)
	if n > t.n {
		panic("curve: fixed-base MSM exceeds table size")
	}
	if n == 0 {
		return Jac{}
	}
	if n < 8 {
		return MSM(t.basis[:n], scalars)
	}
	buf := splitScratch.Get(n)
	defer splitScratch.Put(buf)
	splits := *buf
	maxBits := glvDecomposeAll(scalars, splits)
	if maxBits >= t.nw*t.c {
		// The top digit could not absorb its carry (unreachable with
		// self-checked constants); never compute a wrong answer over it.
		return MSM(t.basis[:n], scalars)
	}
	kernelTrace.Load().RecordMSM(n)
	kernelTrace.Load().RecordFixedBaseMSM(n)
	kernelTrace.Load().RecordGLVSplit(n)
	if maxBits == 0 {
		return Jac{}
	}

	chunks := 1
	if n >= msmParallelMin {
		chunks = min(parallel.Workers(), 1+parallel.Idle())
	}
	if chunks == 1 {
		return t.accumulate(splits, 0, n)
	}
	per := (n + chunks - 1) / chunks
	partials := make([]Jac, chunks)
	parallel.For(chunks, func(j int) {
		lo := j * per
		if hi := min(lo+per, n); lo < hi {
			partials[j] = t.accumulate(splits, lo, hi)
		}
	})
	var total Jac
	for j := range partials {
		total.AddAssign(&partials[j])
	}
	return total
}

// accumulate runs one worker's scalar range [lo, hi) through a private
// bucket set: every window of both GLV halves lands in the same 2^(c-1)
// buckets (the table entries are pre-scaled by 2^(c·w)), then one
// running-sum reduction yields the range's partial sum.
func (t *FixedBaseTable) accumulate(splits []glvSplit, lo, hi int) Jac {
	a := getBatchAdder(1 << uint(t.c-1))
	defer putBatchAdder(a)
	row := make([]int32, t.nw)
	for i := lo; i < hi; i++ {
		for h := 0; h < 2; h++ {
			limbs, neg := &splits[i].k1, splits[i].neg1
			if h == 1 {
				limbs, neg = &splits[i].k2, splits[i].neg2
			}
			if *limbs == ([4]uint64{}) {
				continue // zero scalars and the empty half of short ones
			}
			recodeRow(limbs, row, t.c)
			base := (i*t.nw)*2 + h
			for w := 0; w < t.nw; w++ {
				if d := row[w]; d > 0 {
					a.add(int(d-1), &t.tab[base+2*w], neg)
				} else if d < 0 {
					a.add(int(-d-1), &t.tab[base+2*w], !neg)
				}
			}
		}
	}
	return a.reduce()
}
