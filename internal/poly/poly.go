// Package poly implements polynomial arithmetic over Fr: radix-2 NTTs on
// power-of-two evaluation domains, coset FFTs for quotient computation, and
// basic coefficient-form operations. FFT cost is the dominant prover cost
// tracked by the ZKML cost model (eq. (1) of the paper).
//
// Domains are cached per size and carry lazily-built, shared power tables
// (forward/inverse twiddles, coset scale factors, domain elements), so the
// butterfly loops are pure table-indexed multiply-adds: no per-butterfly
// twiddle advance and no per-chunk Exp reseeds survive on any hot path (see
// DESIGN.md §10).
package poly

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/ff"
	"repro/internal/parallel"
)

// parallelMin is the smallest transform size worth fanning out across
// workers; below it goroutine dispatch costs more than the butterflies.
const parallelMin = 1 << 11

// Domain is a multiplicative subgroup H = <omega> of size N = 2^LogN,
// optionally shifted by a coset generator for extended-domain evaluation.
// Domains are cached per size (NewDomain returns the shared instance) and
// all derived tables build lazily exactly once, so they must be treated as
// immutable after construction.
type Domain struct {
	N        int
	LogN     int
	Omega    ff.Element // primitive N-th root of unity
	OmegaInv ff.Element
	NInv     ff.Element
	// Coset generator g for the extended evaluation coset g·H. We use the
	// field's multiplicative generator so g·H never intersects H.
	CosetGen    ff.Element
	CosetGenInv ff.Element

	// Lazily-built shared tables. omegaPows doubles as the forward twiddle
	// table: stage s of the NTT reads omega^(j·N/2^(s+1)) = omegaPows[j<<shift].
	omegaPows  lazyTable // omega^i for i < N
	invPows    lazyTable // omegaInv^i for i < N/2 (inverse twiddles)
	cosetPows  lazyTable // g^i for i < N (CosetFFT input scaling)
	cosetElems lazyTable // g·omega^i for i < N (the coset evaluation points)

	// partPows holds, per part length n, the CosetPartFFT input scaling
	// (g·omega^j)^k at [j·n + k] for j < N/n and k < n, and the
	// CosetPartIFFT output scaling n⁻¹·(g·omega^j)^-k at the same index.
	partMu   sync.Mutex
	partPows map[partKey]*lazyTable
}

// partKey names a part-scaling table: the part length, and whether it is
// the inverse transform's.
type partKey struct {
	n       int
	inverse bool
}

// lazyTable is a build-once table slot; the built slice is read-only.
type lazyTable struct {
	once sync.Once
	t    []ff.Element
}

func (l *lazyTable) get(build func() []ff.Element) []ff.Element {
	l.once.Do(func() { l.t = build() })
	return l.t
}

// powers returns {c0·base^i : i < n}.
func powers(base, c0 ff.Element, n int) []ff.Element {
	out := make([]ff.Element, n)
	acc := c0
	for i := range out {
		out[i] = acc
		acc.Mul(&acc, &base)
	}
	return out
}

// domainCache shares one Domain (and therefore one set of twiddle tables)
// per size across keygen, prover, and verifier.
var (
	domainMu    sync.Mutex
	domainCache = map[int]*Domain{}
)

// NewDomain returns the evaluation domain of size n (a power of two).
// Instances are cached per size: repeated keygen/prove/verify calls share
// the same Domain and its lazily-built tables.
func NewDomain(n int) *Domain {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: domain size %d not a power of two", n))
	}
	domainMu.Lock()
	defer domainMu.Unlock()
	if d, ok := domainCache[n]; ok {
		return d
	}
	logN := bits.TrailingZeros(uint(n))
	d := &Domain{N: n, LogN: logN}
	d.Omega = ff.RootOfUnity(logN)
	d.OmegaInv.Inverse(&d.Omega)
	nEl := ff.NewElement(uint64(n))
	d.NInv.Inverse(&nEl)
	d.CosetGen = ff.MultiplicativeGen()
	d.CosetGenInv.Inverse(&d.CosetGen)
	domainCache[n] = d
	return d
}

func (d *Domain) elements() []ff.Element {
	return d.omegaPows.get(func() []ff.Element { return powers(d.Omega, ff.One(), d.N) })
}

func (d *Domain) invTwiddles() []ff.Element {
	return d.invPows.get(func() []ff.Element { return powers(d.OmegaInv, ff.One(), d.N/2) })
}

func (d *Domain) cosetScaleIn() []ff.Element {
	return d.cosetPows.get(func() []ff.Element { return powers(d.CosetGen, ff.One(), d.N) })
}

// cosetPartScale returns the CosetPartFFT scaling table for parts of
// length n, or with inverse the CosetPartIFFT one (see partPows).
func (d *Domain) cosetPartScale(n int, inverse bool) []ff.Element {
	key := partKey{n, inverse}
	d.partMu.Lock()
	if d.partPows == nil {
		d.partPows = map[partKey]*lazyTable{}
	}
	t := d.partPows[key]
	if t == nil {
		t = &lazyTable{}
		d.partPows[key] = t
	}
	d.partMu.Unlock()
	return t.get(func() []ff.Element {
		coset := d.CosetElements()
		nInv := NewDomain(n).NInv
		out := make([]ff.Element, 0, d.N)
		for j := 0; j < d.N/n; j++ {
			if !inverse {
				out = append(out, powers(coset[j], ff.One(), n)...)
				continue
			}
			var cInv ff.Element
			cInv.Inverse(&coset[j])
			out = append(out, powers(cInv, nInv, n)...)
		}
		return out
	})
}

// Element returns omega^i (table lookup; i may be negative or exceed N).
func (d *Domain) Element(i int) ff.Element {
	i = ((i % d.N) + d.N) % d.N
	return d.elements()[i]
}

// Elements returns all N domain elements in order. The slice is the shared
// cached table: callers must treat it as read-only.
func (d *Domain) Elements() []ff.Element {
	return d.elements()
}

// CosetElements returns the extended-coset evaluation points g·omega^i in
// order. The slice is the shared cached table: callers must treat it as
// read-only.
func (d *Domain) CosetElements() []ff.Element {
	return d.cosetElems.get(func() []ff.Element { return powers(d.Omega, d.CosetGen, d.N) })
}

// bitReverse permutes v in place by bit-reversed index.
func bitReverse(v []ff.Element) {
	n := len(v)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			v[i], v[j] = v[j], v[i]
		}
	}
}

// ntt runs an in-place radix-2 NTT reading twiddles from tw, where
// tw[i] = root^i for i < n/2. Stage s (blocks of size 2^(s+1)) uses the
// strided subset tw[off<<(logN-1-s)] = root^(off·n/2^(s+1)), so every
// butterfly is one table read plus one multiply-add — no running twiddle
// product. Each stage's n/2 butterflies touch disjoint index pairs, so large
// transforms split the butterfly range across the worker pool; chunks index
// the same shared table, making the result bit-identical to the serial
// schedule at every worker count.
func ntt(v []ff.Element, tw []ff.Element) {
	n := len(v)
	if n <= 1 {
		return
	}
	logN := bits.TrailingZeros(uint(n))
	bitReverse(v)
	par := n >= parallelMin && parallel.Workers() > 1
	for s := 0; s < logN; s++ {
		if !par {
			nttStage(v, tw, s, logN, 0, n/2)
			continue
		}
		parallel.Range(n/2, func(lo, hi int) { nttStage(v, tw, s, logN, lo, hi) })
	}
}

// nttStage runs butterflies [lo, hi) of stage s as runs of the field
// kernel (ff.ButterflyRun), numbered so that each run is a contiguous range.
// Where blocks are at least as long as they are many, butterfly t is offset
// t%half of block t/half, and a run is one block's offsets, its twiddles
// strided through tw. In the early stages, where blocks are short and many,
// butterfly t is block t%blocks at offset t/blocks, and a run is one offset
// across the blocks, under one twiddle. Offset 0's twiddle is 1: those
// butterflies are an add and a subtract (ff.AddSubRun).
func nttStage(v, tw []ff.Element, s, logN, lo, hi int) {
	half := 1 << uint(s)
	size, shift := half<<1, uint(logN-1-s)
	blocks := len(v) / size
	if half >= blocks {
		for t := lo; t < hi; {
			blk, off := t>>uint(s), t&(half-1)
			end := min(hi, (blk+1)<<uint(s))
			i, cnt := blk*size+off, end-t
			if off == 0 {
				ff.AddSubRun(v[i:], v[i+half:], 1, 1)
				i, off, cnt = i+1, 1, cnt-1
			}
			ff.ButterflyRun(v[i:], v[i+half:], tw[off<<shift:], cnt, 1, 1<<shift)
			t = end
		}
		return
	}
	for t := lo; t < hi; { // blocks = 1 << shift
		off, blk := t>>shift, t&(blocks-1)
		end := min(hi, (off+1)<<shift)
		i := blk*size + off
		if off == 0 {
			ff.AddSubRun(v[i:], v[i+half:], end-t, size)
		} else {
			ff.ButterflyRun(v[i:], v[i+half:], tw[off<<shift:], end-t, size, 0)
		}
		t = end
	}
}

// mulByTable multiplies v[i] by table[i] in place, chunked across the
// worker pool.
func mulByTable(v, table []ff.Element) {
	if len(v) < parallelMin || parallel.Workers() <= 1 {
		for i := range v {
			v[i].Mul(&v[i], &table[i])
		}
		return
	}
	parallel.Range(len(v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i].Mul(&v[i], &table[i])
		}
	})
}

// scaleUniform multiplies every element of v by c in place.
func scaleUniform(v []ff.Element, c ff.Element) {
	if len(v) < parallelMin || parallel.Workers() <= 1 {
		for i := range v {
			v[i].Mul(&v[i], &c)
		}
		return
	}
	parallel.Range(len(v), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v[i].Mul(&v[i], &c)
		}
	})
}

// FFT converts coefficient form to evaluation form over H, in place.
func (d *Domain) FFT(v []ff.Element) {
	if len(v) != d.N {
		panic("poly: FFT length mismatch")
	}
	kernelTrace.Load().RecordFFT(d.N)
	ntt(v, d.elements())
}

// IFFT converts evaluation form over H to coefficient form, in place.
func (d *Domain) IFFT(v []ff.Element) {
	if len(v) != d.N {
		panic("poly: IFFT length mismatch")
	}
	kernelTrace.Load().RecordFFT(d.N)
	ntt(v, d.invTwiddles())
	scaleUniform(v, d.NInv)
}

// CosetFFT evaluates the coefficient-form polynomial over the coset g·H,
// in place.
func (d *Domain) CosetFFT(v []ff.Element) {
	if len(v) != d.N {
		panic("poly: CosetFFT length mismatch")
	}
	kernelTrace.Load().RecordFFT(d.N)
	mulByTable(v, d.cosetScaleIn())
	ntt(v, d.elements())
}

// CosetPartFFT evaluates the coefficient-form polynomial v, of degree below
// n = len(v), in place over part j of the coset g·H: afterwards v[i] is its
// value at CosetElements()[j + s·i], where s = N/n and j < s. Part j is the
// coset g·omega^j·H_n of the size-n subgroup H_n = <omega^s>, so this is one
// size-n transform, and the s parts together give what CosetFFT gives for v
// zero-padded to N — while holding n elements instead of N.
func (d *Domain) CosetPartFFT(v []ff.Element, j int) {
	d.checkPart("CosetPartFFT", len(v), j)
	n := len(v)
	kernelTrace.Load().RecordFFT(n)
	mulByTable(v, d.cosetPartScale(n, false)[j*n:(j+1)*n])
	ntt(v, NewDomain(n).elements())
}

// CosetPartIFFT inverts CosetPartFFT: given v[i], the value at
// CosetElements()[j + s·i] (s = N/n) of a polynomial of degree below
// n = len(v), it leaves that polynomial's coefficients in v. It is one
// size-n inverse transform and a multiply by n⁻¹·c^-k, c =
// CosetElements()[j].
func (d *Domain) CosetPartIFFT(v []ff.Element, j int) {
	d.checkPart("CosetPartIFFT", len(v), j)
	n := len(v)
	kernelTrace.Load().RecordFFT(n)
	ntt(v, NewDomain(n).invTwiddles())
	mulByTable(v, d.cosetPartScale(n, true)[j*n:(j+1)*n])
}

// checkPart panics unless part j of length n is a part of d's coset.
func (d *Domain) checkPart(op string, n, j int) {
	if n == 0 || n&(n-1) != 0 || n > d.N || j < 0 || j >= d.N/n {
		panic(fmt.Sprintf("poly: %s part %d of length %d on a size-%d domain", op, j, n, d.N))
	}
}

// Eval evaluates the coefficient-form polynomial p at x (Horner).
func Eval(p []ff.Element, x ff.Element) ff.Element {
	var acc ff.Element
	for i := len(p) - 1; i >= 0; i-- {
		acc.Mul(&acc, &x)
		acc.Add(&acc, &p[i])
	}
	return acc
}

// VanishingEval returns Z_H(x) = x^N - 1 for a domain of size n.
func VanishingEval(n int, x ff.Element) ff.Element {
	var z ff.Element
	z.ExpUint64(&x, uint64(n))
	one := ff.One()
	z.Sub(&z, &one)
	return z
}

// LagrangeEval returns l_i(x) = (omega^i / N) * (x^N - 1) / (x - omega^i),
// the i-th Lagrange basis polynomial of H evaluated at x outside H.
func (d *Domain) LagrangeEval(i int, x ff.Element) ff.Element {
	wi := d.Element(i)
	var den ff.Element
	den.Sub(&x, &wi)
	if den.IsZero() {
		// x is on the domain: l_i(omega^j) = [i == j].
		if x.Equal(&wi) {
			return ff.One()
		}
		return ff.Zero()
	}
	num := VanishingEval(d.N, x)
	var out ff.Element
	out.Inverse(&den)
	out.Mul(&out, &num)
	out.Mul(&out, &wi)
	out.Mul(&out, &d.NInv)
	return out
}

// DivideByLinear divides p(X) by (X - z), returning the quotient. The
// caller must ensure p(z) == 0 (i.e., pass p - p(z) if needed); the
// remainder is discarded. This is the KZG opening witness computation.
func DivideByLinear(p []ff.Element, z ff.Element) []ff.Element {
	if len(p) == 0 {
		return nil
	}
	q := make([]ff.Element, len(p)-1)
	// Synthetic division from the top coefficient down.
	var carry ff.Element
	for i := len(p) - 1; i >= 1; i-- {
		var c ff.Element
		c.Add(&p[i], &carry)
		q[i-1] = c
		carry.Mul(&c, &z)
	}
	return q
}

// AddScaled sets p += c*q in place, growing p if needed, and returns p.
func AddScaled(p []ff.Element, c ff.Element, q []ff.Element) []ff.Element {
	if len(q) > len(p) {
		grown := make([]ff.Element, len(q))
		copy(grown, p)
		p = grown
	}
	for i := range q {
		var t ff.Element
		t.Mul(&c, &q[i])
		p[i].Add(&p[i], &t)
	}
	return p
}
