package curve

import (
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/ff"
	"repro/internal/limbs"
	"repro/internal/parallel"
)

// msmParallelMin is the smallest point count worth splitting across
// workers; below it the per-window dispatch overhead dominates.
const msmParallelMin = 256

// msmBatchSize is the number of pending additions (scheduled bucket ops
// plus conflict pairs) accumulated before one shared Fp batch inversion
// resolves them all. The binary-xgcd field inversion costs 6.2–6.7 µs, so
// at 512 its share is about 12–13 ns per addition: a sixth to a fifth of
// an addition on the IFMA kernel of limbs.AddRun (60–80 ns, the share
// included; 140–160 ns on the ADX kernel), measured on a two-vCPU Xeon.
// Doubling the batch to 1024 halves that share, but paired
// BenchmarkFixedBaseMSM runs found it no faster (slower in 5 of 7 pairs at
// 2^10, 4 of 7 at 2^12), so the smaller working set stays.
// Windows with fewer buckets than this cap the batch at the bucket count.
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
	return windowedSum(points, digits, c, nw, n >= msmParallelMin)
}

// windowedSum runs one bucket pass per signed window of digits (point i's
// window-w digit at digits[i*nw+w]), across workers when par is set, and
// combines the window sums Horner-style, high window first:
// total = sum_w 2^(cw) · sums[w]. The combine is serial and in fixed order,
// so the result is bit-identical at every worker count.
func windowedSum(points []Affine, digits []int32, c, nw int, par bool) Jac {
	sums := make([]Jac, nw)
	window := func(w int) {
		if half := 1 << uint(c-1); half >= msmAffineMinBuckets {
			sums[w] = windowSumAffine(points, digits, w, nw, c)
		} else {
			sums[w] = windowSumJac(points, digits, w, nw, c)
		}
	}
	if par && parallel.Workers() > 1 {
		parallel.For(nw, window)
	} else {
		for w := 0; w < nw; w++ {
			window(w)
		}
	}
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
	a := getBatchAdder(1 << uint(c-1))
	defer putBatchAdder(a)
	for i := range points {
		d := digits[i*nw+w]
		if d > 0 {
			a.add(int(d-1), &points[i], false)
		} else if d < 0 {
			a.add(int(-d-1), &points[i], true)
		}
	}
	return a.reduce()
}

// xy is a point's (x, y) coordinates as the batch kernel (limbs.AddRun)
// reads them; (0, 0) is the point at infinity, since no BN254 point has
// x = 0.
type xy = [2]limbs.Limbs

// The batch kernel reads an Affine's coordinates in place: X and Y are its
// first 64 bytes. This fails to compile otherwise.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(Affine{}.X)]
	_ = [1]struct{}{}[unsafe.Offsetof(Affine{}.Y)-32]
)

// coords returns p's coordinates, in place, as the batch kernel reads them.
func coords(p *Affine) *xy { return (*xy)(unsafe.Pointer(&p.X)) }

// setSigned sets dst to src, negated when neg.
func setSigned(dst, src *xy, neg bool) {
	dst[0] = src[0]
	if neg {
		fpMod.Neg(&dst[1], &src[1])
	} else {
		dst[1] = src[1]
	}
}

// isEmpty reports whether p is the point at infinity.
func isEmpty(p *xy) bool { return limbs.IsZero(&p[0]) && limbs.IsZero(&p[1]) }

// pendRef is a point waiting for its busy bucket: the coordinates it adds
// (nil: none waiting) and whether it is added negated.
type pendRef struct {
	p   *xy
	neg bool
}

// batchAdder accumulates affine bucket additions and resolves them in
// batches: each flush is one limbs.AddRun, which forms every queued
// addition's slope, inverts them all with one shared Fp batch inversion and
// applies the sums. The queue holds references — the point's coordinates
// where the caller keeps them and the sign to add it with — never a copy.
//
// A bucket carries at most one op per batch (busy); a conflicting second
// hit waits in the bucket's pend slot, and a third pairs with it. A pair is
// an independent addition of two points bound for the same bucket: it does
// not read the bucket, so it shares the flush with the bucket's op, and its
// sum re-enters the queue as one point. This is a tree reduction — k hits
// on one bucket still cost exactly k affine additions — but repeated
// conflicts resolve in log(k) flushes instead of stalling k sequential ones.
//
// Only what the adder makes itself is copied: a pair's first point, with
// its sign applied, into the pair's slot in sums[cur] where AddRun writes
// the pair's sum, and a pair sum that has to wait, into its bucket's parked
// slot. Pair sums are requeued from one sums buffer while the next batch's
// pairs fill the other, so every queued reference stays valid until the
// flush that reads it.
type batchAdder struct {
	buckets []xy     // (0, 0) while empty
	busy    []uint32 // busy[b] == epoch: bucket b has an op in this batch
	epoch   uint32
	ops     []limbs.AddOp // this batch's bucket ops and pair ops
	pend    []pendRef     // one waiting point per busy bucket
	pendIdx []int32       // buckets with a (possibly stale) pend entry
	parked  []xy          // pair sums waiting in pend, one slot per bucket
	sums    [2][]xy       // pair slots: this batch's, and the last batch's sums
	cur     int           // sums[cur] takes this batch's pairs
	pairDst []int32       // bucket of each of this batch's pairs
	batch   int           // flush threshold on len(ops)
	scratch []limbs.Limbs // AddRun's working space: AddRunScratch(batch)
}

// adders keeps finished batch adders for the next bucket pass, so an MSM
// reuses the buckets, pend slots and batch buffers an earlier one left
// instead of allocating them per window or per worker; each goroutine holds
// its own adder while it runs.
var adders sync.Pool

// newBatchAdder allocates an empty batch adder over nb buckets.
func newBatchAdder(nb int) *batchAdder {
	batch := min(msmBatchSize, nb)
	return &batchAdder{
		buckets: make([]xy, nb),
		busy:    make([]uint32, nb),
		epoch:   1,
		ops:     make([]limbs.AddOp, 0, batch),
		pend:    make([]pendRef, nb),
		parked:  make([]xy, nb),
		sums:    [2][]xy{make([]xy, batch), make([]xy, batch)},
		pairDst: make([]int32, 0, batch),
		batch:   batch,
		scratch: make([]limbs.Limbs, limbs.AddRunScratch(batch)),
	}
}

// getBatchAdder returns an empty batch adder over nb buckets: a pooled one
// whose buffers are large enough, emptied, or a new one. Give it back with
// putBatchAdder once reduce has returned.
func getBatchAdder(nb int) *batchAdder {
	a, _ := adders.Get().(*batchAdder)
	if a == nil || cap(a.buckets) < nb {
		return newBatchAdder(nb)
	}
	// Built for at least nb buckets, its batch buffers hold at least
	// min(msmBatchSize, nb) entries.
	a.batch = min(msmBatchSize, nb)
	a.buckets, a.busy = a.buckets[:nb], a.busy[:nb]
	a.pend, a.parked = a.pend[:nb], a.parked[:nb]
	clear(a.buckets)
	clear(a.busy)
	a.epoch = 1
	return a
}

// putBatchAdder returns a reduced adder to the pool, dropping the
// references its last batch held so the pool keeps no caller's points
// alive.
func putBatchAdder(a *batchAdder) {
	clear(a.ops[:cap(a.ops)])
	adders.Put(a)
}

// add queues p, negated when neg, into bucket b and flushes when a batch is
// full. p must stay unchanged until reduce returns.
func (a *batchAdder) add(b int, p *Affine, neg bool) {
	if p.IsZero() {
		return
	}
	a.schedule(b, coords(p), neg, false)
	if len(a.ops) >= a.batch {
		a.flushOnce()
	}
}

// schedule queues p (negated when neg) for bucket b without triggering a
// flush: an empty bucket takes the point directly, an idle bucket gets an
// op, a first conflict waits in the pend slot, and a second conflict pairs
// with it. temp marks a pair sum, which a later batch's pairs overwrite,
// so it is copied if it has to wait.
func (a *batchAdder) schedule(b int, p *xy, neg, temp bool) {
	switch {
	case a.busy[b] != a.epoch:
		if bk := &a.buckets[b]; isEmpty(bk) {
			setSigned(bk, p, neg)
			return
		}
		a.busy[b] = a.epoch
		a.ops = append(a.ops, limbs.AddOp{P: &a.buckets[b], Q: p, Neg: neg})
	case a.pend[b].p == nil:
		if temp {
			a.parked[b] = *p
			p = &a.parked[b]
		}
		a.pend[b] = pendRef{p, neg}
		a.pendIdx = append(a.pendIdx, int32(b))
	default:
		w := a.pend[b]
		a.pend[b] = pendRef{}
		slot := &a.sums[a.cur][len(a.pairDst)]
		setSigned(slot, w.p, w.neg)
		a.ops = append(a.ops, limbs.AddOp{P: slot, Q: p, Neg: neg})
		a.pairDst = append(a.pairDst, int32(b))
	}
}

// flushOnce applies every queued op and pair in one AddRun, then requeues
// the pair sums and the waiting pend points.
func (a *batchAdder) flushOnce() {
	kernelTrace.Load().RecordBatchInvFlush()
	fpMod.AddRun(a.ops, a.scratch)
	a.ops = a.ops[:0]
	if a.epoch++; a.epoch == 0 { // every bucket idle again
		clear(a.busy)
		a.epoch = 1
	}

	// Requeue pair sums first (they may pair again with a waiting point),
	// then the surviving pend entries. schedule appends at most one entry
	// per requeued item, so the appends never overtake the reads.
	sums := a.sums[a.cur]
	a.cur ^= 1
	dst := a.pairDst
	a.pairDst = a.pairDst[:0]
	for j := range dst {
		if b := dst[j]; !isEmpty(&sums[j]) {
			a.schedule(int(b), &sums[j], false, true)
		}
	}
	pendIdx := a.pendIdx
	a.pendIdx = a.pendIdx[:0]
	for _, b := range pendIdx {
		if w := a.pend[b]; w.p != nil { // stale entries: pend was consumed by a pair
			a.pend[b] = pendRef{}
			a.schedule(int(b), w.p, w.neg, false)
		}
	}
}

// flushAll drains every pending op. Terminates because each pass applies
// all queued ops and halves each bucket's remaining conflict chain.
func (a *batchAdder) flushAll() {
	for len(a.ops) > 0 || len(a.pendIdx) > 0 {
		a.flushOnce()
	}
}

// reduce drains every pending op and returns sum_b (b+1)·buckets[b] with the
// running-sum trick.
func (a *batchAdder) reduce() Jac {
	a.flushAll()
	var running, sum Jac
	for b := len(a.buckets) - 1; b >= 0; b-- {
		if bk := &a.buckets[b]; !isEmpty(bk) {
			p := Affine{X: Fp{l: bk[0]}, Y: Fp{l: bk[1]}}
			running.AddMixed(&p)
		}
		sum.AddAssign(&running)
	}
	return sum
}
