package curve

import (
	"math/bits"

	"repro/internal/ff"
	"repro/internal/limbs"
	"repro/internal/parallel"
)

// msmParallelMin is the smallest point count worth splitting across
// workers; below it the per-window dispatch overhead dominates.
const msmParallelMin = 256

// msmBatchSize is the number of pending additions (scheduled bucket ops
// plus conflict pairs) accumulated before one shared Fp batch inversion
// resolves them all. The binary-xgcd field inversion costs a few
// microseconds, so at 512 its amortized share is well under one
// multiplication per addition, and the pending-op working set stays
// L2-resident. Windows with fewer buckets than this cap the batch at the
// bucket count.
const msmBatchSize = 512

// msmAffineMinBuckets is the smallest bucket count for which the
// batch-affine accumulator beats Jacobian buckets; below it flushes are too
// small to amortize the batch inversion.
const msmAffineMinBuckets = 256

// maxBucketBytes bounds the per-window bucket array. The previous
// size-driven clamp alone let one window allocate a (2^16-1)-entry Jacobian
// array (~6 MB) for huge inputs; the budget caps the signed window at
// c = 13 (4096 affine buckets, ~288 KiB with flags), which stays cache-
// resident and costs <3% extra window passes at n = 2^20.
const maxBucketBytes = 1 << 19

// scalarBits is the bit length of the Fr modulus.
const scalarBits = 254

// WindowSize picks the signed Pippenger window width c for n points:
// roughly log2(n) - 3, clamped to [2, 16] and then shrunk until the
// 2^(c-1)-entry bucket array fits maxBucketBytes. Exported because the cost
// model derives its MSM operation count from the same schedule.
func windowSize(n int) int {
	c := bits.Len(uint(n)) - 3
	if c < 2 {
		c = 2
	}
	if c > 16 {
		c = 16
	}
	// ~72 bytes per bucket: 64 for the affine coordinates plus flag and
	// pending-op overhead.
	for c > 2 && (72<<uint(c-1)) > maxBucketBytes {
		c--
	}
	return c
}

// MSM computes the multi-scalar multiplication sum_i scalars[i] * points[i].
// This is the dominant group-operation cost in proving; the ZKML cost model
// calibrates t_MSM(2^k) against it.
//
// The kernel is signed-window Pippenger: scalars are recoded into digits in
// [-(2^(c-1)-1), 2^(c-1)] (halving the bucket count versus unsigned
// windows, since -d·P is d·(-P) and negating an affine point is free), and
// large windows accumulate their buckets in affine coordinates, resolving
// the per-addition inversions in batches with Montgomery's trick (2M + 1S
// per add versus 7M + 4S for a Jacobian mixed add). Parallelism is across
// windows — each window is an independent bucket pass — so workers no
// longer duplicate the 254-doubling chain the way per-point chunking did.
// The window sums are combined serially in fixed order, so the result is
// bit-identical at every worker count.
func MSM(points []Affine, scalars []ff.Element) Jac {
	if len(points) != len(scalars) {
		panic("curve: MSM length mismatch")
	}
	n := len(points)
	if n == 0 {
		return Jac{}
	}
	kernelTrace.Load().RecordMSM(n)
	if n < 8 {
		var acc Jac
		for i := range points {
			p := ScalarMul(&points[i], &scalars[i])
			acc.AddAssign(&p)
		}
		return acc
	}
	return msmGLV(points, scalars)
}

// msmPlain is the non-GLV signed-window kernel: full 254-bit scalars, one
// bucket pass per window. Kept as the GLV bound-overflow fallback and the
// reference the kernel tests and benchmarks compare against.
func msmPlain(points []Affine, scalars []ff.Element) Jac {
	n := len(points)
	c := windowSize(n)
	nw := NumWindows(c)
	digits := signedDigits(scalars, c, nw)

	sums := make([]Jac, nw)
	window := func(w int) {
		if half := 1 << uint(c-1); half >= msmAffineMinBuckets {
			sums[w] = windowSumAffine(points, digits, w, nw, c)
		} else {
			sums[w] = windowSumJac(points, digits, w, nw, c)
		}
	}
	if n >= msmParallelMin && parallel.Workers() > 1 {
		parallel.For(nw, window)
	} else {
		for w := 0; w < nw; w++ {
			window(w)
		}
	}

	// Horner combine, high window first: total = sum_w 2^(cw) · sums[w].
	total := sums[nw-1]
	for w := nw - 2; w >= 0; w-- {
		for i := 0; i < c; i++ {
			total.Double()
		}
		total.AddAssign(&sums[w])
	}
	return total
}

// NumWindows returns the signed-window count for width c. The top window
// absorbs the recoding carry in place: ceil(254/c) windows span nw·c ≥ 255
// bits whenever c does not divide 254, so the top raw digit plus carry is
// at most 2^(c-1) and never re-carries. Only when c divides 254 exactly
// (c = 2 in our range) is one extra carry window needed.
func NumWindows(c int) int {
	nw := (scalarBits + c - 1) / c
	if scalarBits%c == 0 {
		nw++
	}
	return nw
}

// signedDigits recodes every scalar into nw signed base-2^c digits in
// [-(2^(c-1)-1), 2^(c-1)], stored row-major (scalar i's window w digit is
// digits[i*nw+w]). Recoding walks windows LSB-first carrying 1 whenever the
// raw digit exceeds 2^(c-1), which preserves the value:
// raw·2^(cw) = (raw - 2^c)·2^(cw) + 2^(c(w+1)).
func signedDigits(scalars []ff.Element, c, nw int) []int32 {
	n := len(scalars)
	digits := make([]int32, n*nw)
	recode := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Canonical 4x64 limbs once per scalar. ff.Element.Limbs is
			// word-size-independent (big.Int.Bits would drop the top 128
			// bits of every scalar on 32-bit platforms) and allocation-free.
			l := scalars[i].Limbs()
			recodeRow(&l, digits[i*nw:(i+1)*nw], c)
		}
	}
	if n >= msmParallelMin && parallel.Workers() > 1 {
		parallel.Range(n, recode)
	} else {
		recode(0, n)
	}
	return digits
}

// recodeRow writes the signed base-2^c digits of the little-endian limb
// vector l into row. The recoded value must fit in len(row)·c - 1 bits so
// the top digit absorbs the final carry without re-carrying (NumWindows and
// the GLV window counts both guarantee this).
func recodeRow(l *[4]uint64, row []int32, c int) {
	half := int64(1) << uint(c-1)
	carry := int64(0)
	for w := range row {
		d := int64(windowDigit(l, w, c)) + carry
		carry = 0
		if d > half {
			d -= int64(1) << uint(c)
			carry = 1
		}
		row[w] = int32(d)
	}
}

// windowDigit extracts the w-th c-bit window of a 256-bit little-endian
// limb vector.
func windowDigit(l *[4]uint64, w, c int) uint64 {
	bit := w * c
	limb := bit >> 6
	off := uint(bit & 63)
	if limb >= 4 {
		return 0
	}
	d := l[limb] >> off
	if off+uint(c) > 64 && limb+1 < 4 {
		d |= l[limb+1] << (64 - off)
	}
	return d & ((1 << uint(c)) - 1)
}

// windowSumJac accumulates one window's buckets in Jacobian coordinates —
// the right tradeoff for small windows, where buckets are hit too rarely
// for batched affine inversions to amortize.
func windowSumJac(points []Affine, digits []int32, w, nw, c int) Jac {
	half := 1 << uint(c-1)
	buckets := make([]Jac, half)
	for i := range points {
		d := digits[i*nw+w]
		if d == 0 {
			continue
		}
		if d > 0 {
			buckets[d-1].AddMixed(&points[i])
		} else {
			neg := points[i].Neg()
			buckets[-d-1].AddMixed(&neg)
		}
	}
	return bucketReduce(buckets)
}

// bucketReduce computes sum_i (i+1)·buckets[i] with the running-sum trick.
func bucketReduce(buckets []Jac) Jac {
	var running, sum Jac
	for i := len(buckets) - 1; i >= 0; i-- {
		running.AddAssign(&buckets[i])
		sum.AddAssign(&running)
	}
	return sum
}

// windowSumAffine accumulates one window's buckets in affine coordinates
// through a batchAdder, then reduces them with the running-sum trick.
func windowSumAffine(points []Affine, digits []int32, w, nw, c int) Jac {
	half := 1 << uint(c-1)
	a := newBatchAdder(half)
	for i := range points {
		d := digits[i*nw+w]
		if d == 0 {
			continue
		}
		if d > 0 {
			a.add(int(d-1), points[i])
		} else {
			a.add(int(-d-1), points[i].Neg())
		}
	}
	a.flushAll()
	var running, sum Jac
	for i := half - 1; i >= 0; i-- {
		if !a.buckets[i].Inf {
			running.AddMixed(&a.buckets[i])
		}
		sum.AddAssign(&running)
	}
	return sum
}

// batchOp is one pending affine bucket addition.
type batchOp struct {
	bucket int32
	point  Affine
}

// pairOp is an independent affine addition of two points destined for the
// same bucket. Pairing is how bucket conflicts stay batched: the pair sum
// does not read the bucket, so it shares a flush with a scheduled op on
// that same bucket, and its result re-enters the queue as a single pending
// point. This is a tree reduction — k hits on one bucket still cost exactly
// k affine additions — but repeated conflicts resolve in log(k) flushes
// instead of stalling k sequential ones.
type pairOp struct {
	bucket int32
	p, q   Affine
}

// batchAdder accumulates affine bucket additions and resolves them in
// batches: each flush computes every pending slope denominator (bucket ops
// and conflict pairs together), inverts them all with one shared Fp batch
// inversion, and applies the additions. A bucket carries at most one
// scheduled op per batch (the busy flag); a conflicting second hit waits in
// the bucket's pend slot, and a third hit pairs with it.
type batchAdder struct {
	buckets []Affine
	busy    []bool
	ops     []batchOp
	pairs   []pairOp
	pend    []Affine // one deferred point per busy bucket
	hasPend []bool
	pendIdx []int32 // buckets with a (possibly stale) pend entry
	batch   int     // flush threshold on len(ops)+len(pairs)
	den     []limbs.Limbs
	scratch []limbs.Limbs // reused BatchInverse prefix buffer
}

func newBatchAdder(nb int) *batchAdder {
	batch := msmBatchSize
	if nb < batch {
		batch = nb
	}
	a := &batchAdder{
		buckets: make([]Affine, nb),
		busy:    make([]bool, nb),
		ops:     make([]batchOp, 0, batch),
		pairs:   make([]pairOp, 0, batch),
		pend:    make([]Affine, nb),
		hasPend: make([]bool, nb),
		batch:   batch,
		den:     make([]limbs.Limbs, batch),
		scratch: make([]limbs.Limbs, batch),
	}
	for i := range a.buckets {
		a.buckets[i].Inf = true
	}
	return a
}

// add schedules p into bucket b and flushes when a batch is full.
func (a *batchAdder) add(b int, p Affine) {
	a.schedule(b, p)
	if len(a.ops)+len(a.pairs) >= a.batch {
		a.flushOnce()
	}
}

// schedule queues p for bucket b without triggering a flush: empty buckets
// are set directly (free), idle buckets get a scheduled op, a first
// conflict parks in the pend slot, and a second conflict pairs with it.
func (a *batchAdder) schedule(b int, p Affine) {
	switch {
	case p.Inf:
	case !a.busy[b]:
		if a.buckets[b].Inf {
			a.buckets[b] = p
			return
		}
		a.busy[b] = true
		a.ops = append(a.ops, batchOp{int32(b), p})
	case !a.hasPend[b]:
		a.pend[b] = p
		a.hasPend[b] = true
		a.pendIdx = append(a.pendIdx, int32(b))
	default:
		a.pairs = append(a.pairs, pairOp{int32(b), a.pend[b], p})
		a.hasPend[b] = false
	}
}

// slopeDen writes the affine-addition denominator for p + q into t: x_q -
// x_p normally, 2y for a doubling, and zero when q = -p. Zero is an
// unambiguous cancellation marker — BN254 G1 has no 2-torsion, so 2y is
// never zero — and BatchInverse passes zero entries through untouched.
func slopeDen(t *Fp, p, q *Affine) {
	if p.X.equal(&q.X) {
		if p.Y.equal(&q.Y) {
			t.double(&p.Y)
		} else {
			*t = Fp{}
		}
	} else {
		t.sub(&q.X, &p.X)
	}
}

// affineApply completes p + q given inv, the inverted slope denominator,
// and stores the sum in *p. A zero inv means the points cancelled.
func affineApply(p, q *Affine, inv *Fp) {
	if inv.isZero() {
		*p = Affine{Inf: true}
		return
	}
	var lam Fp
	if p.X.equal(&q.X) {
		// λ = 3x² / 2y
		var x2 Fp
		x2.square(&p.X)
		lam.double(&x2)
		lam.add(&lam, &x2)
		lam.mul(&lam, inv)
	} else {
		// λ = (y2 - y1) / (x2 - x1)
		lam.sub(&q.Y, &p.Y)
		lam.mul(&lam, inv)
	}
	var x3, y3 Fp
	x3.square(&lam)
	x3.sub(&x3, &p.X)
	x3.sub(&x3, &q.X)
	y3.sub(&p.X, &x3)
	y3.mul(&y3, &lam)
	y3.sub(&y3, &p.Y)
	p.X, p.Y = x3, y3
	p.Inf = false
}

// flushOnce resolves every scheduled op and conflict pair with one batch
// inversion, then requeues the pair results and parked pend points.
func (a *batchAdder) flushOnce() {
	kernelTrace.Load().RecordBatchInvFlush()
	ops, pairs := a.ops, a.pairs
	den := a.den[:len(ops)+len(pairs)]
	for k := range ops {
		var t Fp
		slopeDen(&t, &a.buckets[ops[k].bucket], &ops[k].point)
		den[k] = t.l
	}
	for k := range pairs {
		var t Fp
		slopeDen(&t, &pairs[k].p, &pairs[k].q)
		den[len(ops)+k] = t.l
	}
	fpMod.BatchInverseScratch(den, a.scratch)
	for k := range ops {
		b := ops[k].bucket
		a.busy[b] = false
		inv := Fp{l: den[k]}
		affineApply(&a.buckets[b], &ops[k].point, &inv)
	}
	for k := range pairs {
		inv := Fp{l: den[len(ops)+k]}
		affineApply(&pairs[k].p, &pairs[k].q, &inv)
	}
	a.ops = a.ops[:0]

	// Requeue with every busy flag clear: pair sums first (they may pair
	// again with a parked point), then the surviving pend entries.
	// schedule() appends at most one entry per requeued item and both
	// slices start empty, so capacity cannot overflow here.
	a.pairs = a.pairs[:0]
	for k := range pairs {
		a.schedule(int(pairs[k].bucket), pairs[k].p)
	}
	pendIdx := a.pendIdx
	a.pendIdx = a.pendIdx[:0]
	for _, b := range pendIdx {
		if a.hasPend[b] { // stale entries: pend was consumed by a pair
			a.hasPend[b] = false
			a.schedule(int(b), a.pend[b])
		}
	}
}

// flushAll drains every pending op. Terminates because each pass applies
// all scheduled ops and halves each bucket's remaining conflict chain.
func (a *batchAdder) flushAll() {
	for len(a.ops) > 0 || len(a.pairs) > 0 || len(a.pendIdx) > 0 {
		a.flushOnce()
	}
}
