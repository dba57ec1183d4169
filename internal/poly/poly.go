// Package poly implements polynomial arithmetic over Fr: radix-2 NTTs on
// power-of-two evaluation domains, coset FFTs for quotient computation, and
// basic coefficient-form operations. FFT cost is the dominant prover cost
// tracked by the ZKML cost model (eq. (1) of the paper).
//
// Every transform runs one stage loop over ff.Blocks on the block
// butterfly kernels (ntt.go). Domains are cached per size and carry
// lazily-built, shared tables in the block kernel's form — per-stage
// twiddles, coset and part scalings — so no table is derived on a hot path
// (see DESIGN.md §10).
package poly

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/ff"
)

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

	omegaPows  lazy[[]ff.Element] // omega^i for i < N
	cosetElems lazy[[]ff.Element] // g·omega^i for i < N (the coset evaluation points)

	// The transforms' tables in block form, per block kernel (kernelSlot).
	kernels [2]kernelTables

	// partPows holds, per part length n, the CosetPartFFT input scaling
	// (g·omega^j)^k of part j, or the CosetPartIFFT output scaling
	// n⁻¹·(g·omega^j)^-k, in block form (partScale).
	partMu   sync.Mutex
	partPows map[partKey]*lazy[[]ff.Block]
}

// kernelTables are a domain's tables on one block kernel: the forward and
// inverse transforms' twiddles and the CosetFFT input scaling g^i.
type kernelTables struct {
	fwd, inv lazy[*twiddles]
	coset    lazy[[]ff.Block]
}

// partKey names a part-scaling table: the part length, whether it is the
// inverse transform's, and the block kernel's slot.
type partKey struct {
	n       int
	inverse bool
	slot    int
}

// lazy is a build-once table slot; the built value is read-only.
type lazy[T any] struct {
	once sync.Once
	v    T
}

func (l *lazy[T]) get(build func() T) T {
	l.once.Do(func() { l.v = build() })
	return l.v
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
	d := newDomain(n)
	domainCache[n] = d
	return d
}

// newDomain builds a domain of size n with none of its tables built.
func newDomain(n int) *Domain {
	logN := bits.TrailingZeros(uint(n))
	d := &Domain{N: n, LogN: logN}
	d.Omega = ff.RootOfUnity(logN)
	d.OmegaInv.Inverse(&d.Omega)
	nEl := ff.NewElement(uint64(n))
	d.NInv.Inverse(&nEl)
	d.CosetGen = ff.MultiplicativeGen()
	d.CosetGenInv.Inverse(&d.CosetGen)
	return d
}

func (d *Domain) elements() []ff.Element {
	return d.omegaPows.get(func() []ff.Element { return powers(d.Omega, ff.One(), d.N) })
}

// twiddles returns d's forward or inverse transform tables on kernel k.
func (d *Domain) twiddles(k ff.BlockKernel, inverse bool) *twiddles {
	t := &d.kernels[kernelSlot(k)]
	if inverse {
		return t.inv.get(func() *twiddles { return newTwiddles(k, d, true) })
	}
	return t.fwd.get(func() *twiddles { return newTwiddles(k, d, false) })
}

// cosetScale returns the CosetFFT input scaling g^i on kernel k, in the
// gather order of d's transform.
func (d *Domain) cosetScale(k ff.BlockKernel) []ff.Block {
	return d.kernels[kernelSlot(k)].coset.get(func() []ff.Block {
		return gatherTable(k, powers(d.CosetGen, ff.One(), d.N))
	})
}

// partScale returns part j's scaling for parts of length n on kernel k:
// the CosetPartFFT input scaling (g·omega^j)^k in the gather order of the
// size-n transform, or with inverse the CosetPartIFFT output scaling
// n⁻¹·(g·omega^j)^-k in natural order (see partPows). One table holds
// every part, so it builds once per part length.
func (d *Domain) partScale(k ff.BlockKernel, n, j int, inverse bool) []ff.Block {
	key := partKey{n, inverse, kernelSlot(k)}
	d.partMu.Lock()
	if d.partPows == nil {
		d.partPows = map[partKey]*lazy[[]ff.Block]{}
	}
	t := d.partPows[key]
	if t == nil {
		t = &lazy[[]ff.Block]{}
		d.partPows[key] = t
	}
	d.partMu.Unlock()
	per := max(n/ff.BlockRows, 1)
	all := t.get(func() []ff.Block {
		coset := d.CosetElements()
		nInv := NewDomain(n).NInv
		out := make([]ff.Block, 0, d.N/n*per)
		for j := 0; j < d.N/n; j++ {
			if !inverse {
				out = append(out, gatherTable(k, powers(coset[j], ff.One(), n))...)
				continue
			}
			var cInv ff.Element
			cInv.Inverse(&coset[j])
			out = append(out, naturalTable(k, powers(cInv, nInv, n))...)
		}
		return out
	})
	return all[j*per : (j+1)*per]
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

// FFT converts coefficient form to evaluation form over H, in place.
func (d *Domain) FFT(v []ff.Element) { d.fft(ff.Blocks, v) }

func (d *Domain) fft(k ff.BlockKernel, v []ff.Element) {
	if len(v) != d.N {
		panic("poly: FFT length mismatch")
	}
	kernelTrace.Load().RecordFFT(d.N)
	ntt(k, v, d.twiddles(k, false), nil, nil)
}

// IFFT converts evaluation form over H to coefficient form, in place.
func (d *Domain) IFFT(v []ff.Element) { d.ifft(ff.Blocks, v) }

func (d *Domain) ifft(k ff.BlockKernel, v []ff.Element) {
	if len(v) != d.N {
		panic("poly: IFFT length mismatch")
	}
	kernelTrace.Load().RecordFFT(d.N)
	ntt(k, v, d.twiddles(k, true), nil, nil)
}

// CosetFFT evaluates the coefficient-form polynomial over the coset g·H,
// in place.
func (d *Domain) CosetFFT(v []ff.Element) { d.cosetFFT(ff.Blocks, v) }

func (d *Domain) cosetFFT(k ff.BlockKernel, v []ff.Element) {
	if len(v) != d.N {
		panic("poly: CosetFFT length mismatch")
	}
	kernelTrace.Load().RecordFFT(d.N)
	ntt(k, v, d.twiddles(k, false), d.cosetScale(k), nil)
}

// CosetPartFFT evaluates the coefficient-form polynomial v, of degree below
// n = len(v), in place over part j of the coset g·H: afterwards v[i] is its
// value at CosetElements()[j + s·i], where s = N/n and j < s. Part j is the
// coset g·omega^j·H_n of the size-n subgroup H_n = <omega^s>, so this is one
// size-n transform, and the s parts together give what CosetFFT gives for v
// zero-padded to N — while holding n elements instead of N.
func (d *Domain) CosetPartFFT(v []ff.Element, j int) { d.cosetPartFFT(ff.Blocks, v, j) }

func (d *Domain) cosetPartFFT(k ff.BlockKernel, v []ff.Element, j int) {
	d.checkPart("CosetPartFFT", len(v), j)
	n := len(v)
	kernelTrace.Load().RecordFFT(n)
	ntt(k, v, NewDomain(n).twiddles(k, false), d.partScale(k, n, j, false), nil)
}

// CosetPartIFFT inverts CosetPartFFT: given v[i], the value at
// CosetElements()[j + s·i] (s = N/n) of a polynomial of degree below
// n = len(v), it leaves that polynomial's coefficients in v. It is one
// size-n inverse transform whose output is scaled by n⁻¹·c^-k, c =
// CosetElements()[j].
func (d *Domain) CosetPartIFFT(v []ff.Element, j int) { d.cosetPartIFFT(ff.Blocks, v, j) }

func (d *Domain) cosetPartIFFT(k ff.BlockKernel, v []ff.Element, j int) {
	d.checkPart("CosetPartIFFT", len(v), j)
	n := len(v)
	kernelTrace.Load().RecordFFT(n)
	ntt(k, v, NewDomain(n).twiddles(k, true), nil, d.partScale(k, n, j, true))
}

// checkPart panics unless part j of length n is a part of d's coset.
func (d *Domain) checkPart(op string, n, j int) {
	if n == 0 || n&(n-1) != 0 || n > d.N || j < 0 || j >= d.N/n {
		panic(fmt.Sprintf("poly: %s part %d of length %d on a size-%d domain", op, j, n, d.N))
	}
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
