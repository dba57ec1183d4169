package poly

import (
	"math/big"
	"sync"
	"testing"

	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/parallel"
)

func randPoly(n int) []ff.Element {
	p := make([]ff.Element, n)
	for i := range p {
		p[i] = ff.Random()
	}
	return p
}

func TestFFTRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16, 64, 256} {
		d := NewDomain(n)
		p := randPoly(n)
		orig := append([]ff.Element(nil), p...)
		d.FFT(p)
		d.IFFT(p)
		for i := range p {
			if !p[i].Equal(&orig[i]) {
				t.Fatalf("n=%d: FFT/IFFT round trip failed at %d", n, i)
			}
		}
	}
}

func TestFFTMatchesHorner(t *testing.T) {
	d := NewDomain(32)
	p := randPoly(32)
	evals := append([]ff.Element(nil), p...)
	d.FFT(evals)
	for i := 0; i < d.N; i++ {
		want := Eval(p, d.Element(i))
		if !evals[i].Equal(&want) {
			t.Fatalf("FFT eval mismatch at omega^%d", i)
		}
	}
}

func TestCosetFFTMatchesHorner(t *testing.T) {
	d := NewDomain(16)
	p := randPoly(16)
	evals := append([]ff.Element(nil), p...)
	d.CosetFFT(evals)
	g := ff.MultiplicativeGen()
	for i := 0; i < d.N; i++ {
		var x ff.Element
		w := d.Element(i)
		x.Mul(&g, &w)
		want := Eval(p, x)
		if !evals[i].Equal(&want) {
			t.Fatalf("coset FFT mismatch at index %d", i)
		}
	}
}

// TestCosetPartFFTMatchesCosetFFT evaluates a polynomial part by part —
// including on a 2^12-point extended domain, where each part's transform
// takes the parallel butterfly path — and requires every part to equal the
// matching stride of one full-size CosetFFT of the zero-padded polynomial.
func TestCosetPartFFTMatchesCosetFFT(t *testing.T) {
	for _, c := range []struct{ n, scale int }{{1, 4}, {8, 1}, {8, 4}, {16, 8}, {1 << 12, 2}} {
		ext := NewDomain(c.n * c.scale)
		p := randPoly(c.n)
		full := make([]ff.Element, ext.N)
		copy(full, p)
		ext.CosetFFT(full)
		for j := 0; j < c.scale; j++ {
			part := append([]ff.Element(nil), p...)
			ext.CosetPartFFT(part, j)
			for i := range part {
				if !part[i].Equal(&full[j+c.scale*i]) {
					t.Fatalf("n=%d scale=%d: part %d row %d differs from the full coset FFT", c.n, c.scale, j, i)
				}
			}
		}
	}
	for _, bad := range []struct{ n, j int }{{3, 0}, {16, 1}, {4, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CosetPartFFT(len %d, part %d) on a size-16 domain did not panic", bad.n, bad.j)
				}
			}()
			NewDomain(16).CosetPartFFT(make([]ff.Element, bad.n), bad.j)
		}()
	}
}

// TestCosetPartIFFTInvertsCosetPartFFT takes a random polynomial of every
// size 2^1 … 2^12 to each part of extended domains 2, 4 and 8 times its
// size and back, and requires the coefficients it started from; each
// inverse transform is one size-n transform in the kernel trace.
func TestCosetPartIFFTInvertsCosetPartFFT(t *testing.T) {
	for logN := 1; logN <= 12; logN++ {
		n := 1 << logN
		p := randPoly(n)
		for _, scale := range []int{2, 4, 8} {
			ext := NewDomain(n * scale)
			for j := 0; j < scale; j++ {
				part := append([]ff.Element(nil), p...)
				ext.CosetPartFFT(part, j)
				var k obs.KernelCounters
				prev := SetKernelTrace(&k)
				ext.CosetPartIFFT(part, j)
				SetKernelTrace(prev)
				for i := range part {
					if !part[i].Equal(&p[i]) {
						t.Fatalf("n=%d scale=%d part %d: coefficient %d differs after the round trip", n, scale, j, i)
					}
				}
				if got := k.FFT[logN].Load(); got != 1 {
					t.Fatalf("n=%d scale=%d part %d: traced %d size-n transforms, want 1", n, scale, j, got)
				}
			}
		}
	}
	for _, bad := range []struct{ n, j int }{{3, 0}, {16, 1}, {4, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CosetPartIFFT(len %d, part %d) on a size-16 domain did not panic", bad.n, bad.j)
				}
			}()
			NewDomain(16).CosetPartIFFT(make([]ff.Element, bad.n), bad.j)
		}()
	}
}

// TestCosetPartFFTConcurrentFirstUse has goroutines race to build a part
// table no other test builds (parts of length 2^7); the quotient's
// per-column fan-out does this on a prover's first use. Every part must
// still come out right.
func TestCosetPartFFTConcurrentFirstUse(t *testing.T) {
	const n, scale = 1 << 7, 8
	ext := NewDomain(n * scale)
	p := randPoly(n)
	full := make([]ff.Element, ext.N)
	copy(full, p)
	ext.CosetFFT(full)
	var wg sync.WaitGroup
	parts := make([][]ff.Element, 4*scale)
	for g := range parts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parts[g] = append([]ff.Element(nil), p...)
			ext.CosetPartFFT(parts[g], g%scale)
		}(g)
	}
	wg.Wait()
	for g, part := range parts {
		for i := range part {
			if j := g % scale; !part[i].Equal(&full[j+scale*i]) {
				t.Fatalf("goroutine %d: part %d row %d differs from the full coset FFT", g, j, i)
			}
		}
	}
}

func TestVanishingOnDomain(t *testing.T) {
	d := NewDomain(32)
	for i := 0; i < d.N; i++ {
		z := VanishingEval(d.N, d.Element(i))
		if !z.IsZero() {
			t.Fatalf("Z_H(omega^%d) != 0", i)
		}
	}
	// Nonzero on the coset.
	g := ff.MultiplicativeGen()
	z := VanishingEval(d.N, g)
	if z.IsZero() {
		t.Fatal("Z_H nonzero off-domain expected")
	}
}

func TestLagrangeEval(t *testing.T) {
	d := NewDomain(16)
	// On-domain: delta behaviour.
	for i := 0; i < 4; i++ {
		for j := 0; j < d.N; j++ {
			v := d.LagrangeEval(i, d.Element(j))
			if i == j && !v.IsOne() {
				t.Fatalf("l_%d(omega^%d) != 1", i, j)
			}
			if i != j && !v.IsZero() {
				t.Fatalf("l_%d(omega^%d) != 0", i, j)
			}
		}
	}
	// Off-domain: sum of all Lagrange polys is 1.
	x := ff.Random()
	sum := ff.Zero()
	for i := 0; i < d.N; i++ {
		l := d.LagrangeEval(i, x)
		sum.Add(&sum, &l)
	}
	if !sum.IsOne() {
		t.Fatal("sum of Lagrange basis != 1")
	}
	// Off-domain interpolation check: p(x) == sum p(omega^i) l_i(x).
	p := randPoly(16)
	evals := append([]ff.Element(nil), p...)
	d.FFT(evals)
	var acc ff.Element
	for i := 0; i < d.N; i++ {
		l := d.LagrangeEval(i, x)
		var term ff.Element
		term.Mul(&evals[i], &l)
		acc.Add(&acc, &term)
	}
	want := Eval(p, x)
	if !acc.Equal(&want) {
		t.Fatal("Lagrange interpolation mismatch")
	}
}

// mulNaive returns p*q by schoolbook multiplication.
func mulNaive(p, q []ff.Element) []ff.Element {
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	out := make([]ff.Element, len(p)+len(q)-1)
	for i := range p {
		if p[i].IsZero() {
			continue
		}
		for j := range q {
			var t ff.Element
			t.Mul(&p[i], &q[j])
			out[i+j].Add(&out[i+j], &t)
		}
	}
	return out
}

func TestDivideByLinear(t *testing.T) {
	// p(X) with a root at z: p = (X - z) * q for random q.
	z := ff.Random()
	q := randPoly(10)
	var negZ ff.Element
	negZ.Neg(&z)
	linear := []ff.Element{negZ, ff.One()}
	p := mulNaive(linear, q)
	got := DivideByLinear(p, z)
	if len(got) != len(q) {
		t.Fatalf("quotient length %d, want %d", len(got), len(q))
	}
	for i := range q {
		if !got[i].Equal(&q[i]) {
			t.Fatalf("quotient coeff %d mismatch", i)
		}
	}
}

func TestDivideByLinearWithEvalSubtraction(t *testing.T) {
	p := randPoly(20)
	z := ff.Random()
	y := Eval(p, z)
	shifted := append([]ff.Element(nil), p...)
	shifted[0].Sub(&shifted[0], &y)
	q := DivideByLinear(shifted, z)
	// Check (X - z) * q == shifted at a random point.
	x := ff.Random()
	var lhs, t1 ff.Element
	t1.Sub(&x, &z)
	qx := Eval(q, x)
	lhs.Mul(&t1, &qx)
	rhs := Eval(shifted, x)
	if !lhs.Equal(&rhs) {
		t.Fatal("witness polynomial incorrect")
	}
}

func TestAddScaled(t *testing.T) {
	p := randPoly(5)
	q := randPoly(9)
	c := ff.Random()
	out := AddScaled(append([]ff.Element(nil), p...), c, q)
	x := ff.Random()
	var want, t1 ff.Element
	pv, qv := Eval(p, x), Eval(q, x)
	t1.Mul(&c, &qv)
	want.Add(&pv, &t1)
	got := Eval(out, x)
	if !got.Equal(&want) {
		t.Fatal("AddScaled mismatch")
	}
}

func TestDomainBadSizePanics(t *testing.T) {
	for _, n := range []int{0, 3, 12, -4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDomain(%d) should panic", n)
				}
			}()
			NewDomain(n)
		}()
	}
}

func BenchmarkFFT(b *testing.B) {
	for _, logN := range []int{10, 14, 16} {
		d := NewDomain(1 << logN)
		p := randPoly(d.N)
		b.Run(map[int]string{10: "2^10", 14: "2^14", 16: "2^16"}[logN], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.FFT(p)
			}
		})
	}
}

// BenchmarkCosetPartFFT times one quotient transform of vgg-micro's shape:
// part 1 of the 2^15 extended coset for a 2^13-row column, on one worker and
// on the whole pool.
func BenchmarkCosetPartFFT(b *testing.B) {
	d := NewDomain(1 << 15)
	p := randPoly(1 << 13)
	v := make([]ff.Element, len(p))
	defer parallel.SetWorkers(0)
	for _, workers := range []int{1, 0} {
		parallel.SetWorkers(workers)
		b.Run(map[int]string{1: "serial", 0: "pool"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(v, p)
				d.CosetPartFFT(v, 1)
			}
		})
	}
}

// naiveDFT evaluates p at every power of root by Horner — the O(n²)
// reference the table-driven NTT is cross-checked against.
func naiveDFT(p []ff.Element, root ff.Element) []ff.Element {
	n := len(p)
	out := make([]ff.Element, n)
	x := ff.One()
	for i := 0; i < n; i++ {
		out[i] = Eval(p, x)
		x.Mul(&x, &root)
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512} {
		d := NewDomain(n)
		p := randPoly(n)
		want := naiveDFT(p, d.Omega)
		got := append([]ff.Element(nil), p...)
		d.FFT(got)
		for i := range got {
			if !got[i].Equal(&want[i]) {
				t.Fatalf("n=%d: FFT disagrees with naive DFT at %d", n, i)
			}
		}
	}
}

// TestFFTIdenticalAcrossWorkers pins the determinism claim for the shared
// twiddle tables: the parallel butterfly schedule must produce bit-identical
// outputs at every worker count, for sizes below, at, and above parallelMin.
func TestFFTIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range []int{parallelMin / 2, parallelMin, parallelMin * 2} {
		d := NewDomain(n)
		p := randPoly(n)
		defer parallel.SetWorkers(0)
		variants := [][]ff.Element{}
		for _, w := range []int{1, 2, 4, 8} {
			parallel.SetWorkers(w)
			v := append([]ff.Element(nil), p...)
			d.FFT(v)
			d.CosetFFT(v)
			d.IFFT(v)
			variants = append(variants, v)
		}
		for k := 1; k < len(variants); k++ {
			for i := range variants[0] {
				if !variants[0][i].Equal(&variants[k][i]) {
					t.Fatalf("n=%d: transform differs between 1 and %d workers at index %d", n, []int{1, 2, 4, 8}[k], i)
				}
			}
		}
	}
}

func TestDomainCacheShared(t *testing.T) {
	if NewDomain(256) != NewDomain(256) {
		t.Fatal("NewDomain should return the cached instance per size")
	}
	if NewDomain(256) == NewDomain(512) {
		t.Fatal("distinct sizes must get distinct domains")
	}
}

func TestDomainElementMatchesExp(t *testing.T) {
	d := NewDomain(32)
	for _, i := range []int{0, 1, 5, 31, 32, 33, -1, -7, -32, 100, -100} {
		var want ff.Element
		e := int64(i)
		if e < 0 {
			want.Exp(&d.Omega, big.NewInt(e))
		} else {
			want.ExpUint64(&d.Omega, uint64(e))
		}
		got := d.Element(i)
		if !got.Equal(&want) {
			t.Fatalf("Element(%d) != omega^%d", i, i)
		}
	}
}

func TestCosetElements(t *testing.T) {
	d := NewDomain(16)
	xs := d.CosetElements()
	g := ff.MultiplicativeGen()
	for i := range xs {
		var want ff.Element
		w := d.Element(i)
		want.Mul(&g, &w)
		if !xs[i].Equal(&want) {
			t.Fatalf("CosetElements()[%d] != g·omega^%d", i, i)
		}
	}
}
