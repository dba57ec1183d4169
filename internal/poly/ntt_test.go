package poly

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ff"
	"repro/internal/limbs"
	"repro/internal/parallel"
)

// horner evaluates p at x one multiply-add at a time: the reference the
// block transforms are checked against, with no block kernel in it.
func horner(p []ff.Element, x ff.Element) ff.Element {
	var acc ff.Element
	for i := len(p) - 1; i >= 0; i-- {
		acc.Mul(&acc, &x)
		acc.Add(&acc, &p[i])
	}
	return acc
}

// transform is one of the five NTT entry points, run on a chosen block
// kernel, with its naive DFT: want(v, i) is output i for input v, one
// O(n) evaluation.
type transform struct {
	name string
	run  func(k ff.BlockKernel, v []ff.Element)
	want func(v []ff.Element, i int) ff.Element
}

// transforms are the entry points on d, the parts taking part 1 of the
// coset of ext = NewDomain(2·d.N).
func transforms(d *Domain) []transform {
	ext := NewDomain(2 * d.N)
	c := ext.CosetElements()[1]
	var cInv ff.Element
	cInv.Inverse(&c)
	g := d.CosetGen
	at := func(base ff.Element, i int) ff.Element {
		w := d.Element(i)
		return *w.Mul(&w, &base)
	}
	pow := func(x ff.Element, i int) ff.Element {
		var z ff.Element
		z.ExpUint64(&x, uint64(i))
		return z
	}
	return []transform{
		{"FFT", d.fft, func(v []ff.Element, i int) ff.Element { return horner(v, d.Element(i)) }},
		{"IFFT", d.ifft, func(v []ff.Element, i int) ff.Element {
			y := horner(v, d.Element(-i))
			return *y.Mul(&y, &d.NInv)
		}},
		{"CosetFFT", d.cosetFFT, func(v []ff.Element, i int) ff.Element { return horner(v, at(g, i)) }},
		{"CosetPartFFT", func(k ff.BlockKernel, v []ff.Element) { ext.cosetPartFFT(k, v, 1) },
			func(v []ff.Element, i int) ff.Element { return horner(v, at(c, i)) }},
		{"CosetPartIFFT", func(k ff.BlockKernel, v []ff.Element) { ext.cosetPartIFFT(k, v, 1) },
			func(v []ff.Element, i int) ff.Element {
				y := horner(v, d.Element(-i))
				s := pow(cInv, i)
				y.Mul(&y, &s)
				return *y.Mul(&y, &d.NInv)
			}},
	}
}

// sampleRows is every row of a transform up to 256 points, and beyond that
// the first, second, middle and last rows and a dozen at random.
func sampleRows(n int, rng *rand.Rand) []int {
	if n <= 256 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	rows := []int{0, 1, n / 2, n - 1}
	for len(rows) < 16 {
		rows = append(rows, rng.Intn(n))
	}
	return rows
}

// TestNTTKernelsAgree runs each of the five entry points on every size
// 2^0 … 2^16 on the block kernel this CPU runs and on the portable one,
// side by side, at 1, 2 and 4 workers: every run must match the naive DFT
// (all rows up to 256 points, sampled rows beyond) and every other run of
// the same transform bit for bit.
func TestNTTKernelsAgree(t *testing.T) {
	kernels := []struct {
		name string
		k    ff.BlockKernel
	}{{"portable", ff.PortableBlocks}, {limbs.BlockKernel(), ff.Blocks}}
	if limbs.BlockKernel() == "portable" {
		t.Logf("no IFMA kernel on this CPU: checking the portable block kernel only")
		kernels = kernels[:1]
	}
	maxLog := 16
	if testing.Short() {
		maxLog = 12
	}
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(7))
	for logN := 0; logN <= maxLog; logN++ {
		n := 1 << logN
		p := randPoly(n)
		rows := sampleRows(n, rng)
		for _, tr := range transforms(NewDomain(n)) {
			want := make([]ff.Element, len(rows))
			for j, i := range rows {
				want[j] = tr.want(p, i)
			}
			var first []ff.Element
			for _, kn := range kernels {
				for _, workers := range []int{1, 2, 4} {
					parallel.SetWorkers(workers)
					v := append([]ff.Element(nil), p...)
					tr.run(kn.k, v)
					where := fmt.Sprintf("%s of 2^%d on the %s kernel, %d workers", tr.name, logN, kn.name, workers)
					for j, i := range rows {
						if !v[i].Equal(&want[j]) {
							t.Fatalf("%s: row %d differs from the naive DFT", where, i)
						}
					}
					if first == nil {
						first = v
						continue
					}
					for i := range v {
						if !v[i].Equal(&first[i]) {
							t.Fatalf("%s: row %d differs from the first run", where, i)
						}
					}
				}
			}
		}
	}
}

// TestNTTTablesConcurrentFirstUse has goroutines race to build every lazy
// table of a fresh, uncached domain — both directions' twiddles, the coset
// scaling and a part scaling, on both block kernels — as the prover's
// per-column fan-out does on first use, and requires every transform to
// match the same transform on the cached domain.
func TestNTTTablesConcurrentFirstUse(t *testing.T) {
	const n = 1 << 12
	fresh, cached := newDomain(n), NewDomain(n)
	full, part := randPoly(n), randPoly(n/2)
	ops := []struct {
		name string
		in   []ff.Element
		run  func(d *Domain, k ff.BlockKernel, v []ff.Element)
	}{
		{"FFT", full, func(d *Domain, k ff.BlockKernel, v []ff.Element) { d.fft(k, v) }},
		{"IFFT", full, func(d *Domain, k ff.BlockKernel, v []ff.Element) { d.ifft(k, v) }},
		{"CosetFFT", full, func(d *Domain, k ff.BlockKernel, v []ff.Element) { d.cosetFFT(k, v) }},
		{"CosetPartFFT", part, func(d *Domain, k ff.BlockKernel, v []ff.Element) { d.cosetPartFFT(k, v, 1) }},
		{"CosetPartIFFT", part, func(d *Domain, k ff.BlockKernel, v []ff.Element) { d.cosetPartIFFT(k, v, 1) }},
	}
	kernels := []ff.BlockKernel{ff.Blocks, ff.PortableBlocks}
	want := make([][]ff.Element, len(ops))
	for i, op := range ops {
		want[i] = append([]ff.Element(nil), op.in...)
		op.run(cached, ff.Blocks, want[i])
	}
	var wg sync.WaitGroup
	got := make([][]ff.Element, 2*len(ops)*len(kernels))
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			op := ops[g%len(ops)]
			got[g] = append([]ff.Element(nil), op.in...)
			op.run(fresh, kernels[g/len(ops)%len(kernels)], got[g])
		}(g)
	}
	wg.Wait()
	for g, v := range got {
		for i := range v {
			if !v[i].Equal(&want[g%len(ops)][i]) {
				t.Fatalf("goroutine %d: %s row %d differs from the cached domain's", g, ops[g%len(ops)].name, i)
			}
		}
	}
}

// TestEvalsMatchHorner holds Evals and Eval to Horner's rule on
// polynomials of mixed lengths — empty, shorter than a block, one block
// plus a partial one, many blocks — at one point.
func TestEvalsMatchHorner(t *testing.T) {
	x := ff.Random()
	var ps [][]ff.Element
	for _, n := range []int{0, 1, 5, 16, 17, 33, 1000, 4096} {
		ps = append(ps, randPoly(n))
	}
	got := Evals(ps, x)
	for i, p := range ps {
		want := horner(p, x)
		if !got[i].Equal(&want) {
			t.Fatalf("Evals: polynomial %d of length %d differs from Horner", i, len(p))
		}
		if one := Eval(p, x); !one.Equal(&want) {
			t.Fatalf("Eval: polynomial of length %d differs from Horner", len(p))
		}
	}
	if len(Evals(nil, x)) != 0 {
		t.Fatal("Evals of no polynomials returned values")
	}
}
