// Package repro holds the kernel benchmarks nothing else measures: prover
// scaling over worker counts, the IPA opening, its check and its Lagrange
// basis, the cost estimator itself, the optimizer, and the power-of-two row
// cliff. The paper's tables are reproduced by cmd/zkml-bench
// (internal/experiments) and timed by benchmark/.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/transcript"
)

var benchFP = fixedpoint.Params{ScaleBits: 5, LookupBits: 9}

// mnist is the KZG-compiled mnist plan and keys, built once per process.
var mnist struct {
	once sync.Once
	plan *core.Plan
	keys *core.Keys
	spec model.Spec
	err  error
}

func compileMNIST(b *testing.B) (*core.Plan, *core.Keys, model.Spec) {
	b.Helper()
	mnist.once.Do(func() {
		mnist.spec, mnist.err = model.Get("mnist")
		if mnist.err != nil {
			return
		}
		opt := core.DefaultOptions(pcs.KZG, benchFP)
		opt.MinCols, opt.MaxCols = 6, 16
		opt.Calibration = costmodel.StaticCalibration()
		mnist.plan, _, _, mnist.err = core.Optimize(mnist.spec.Build(), mnist.spec.Input(1), opt)
		if mnist.err == nil {
			mnist.keys, mnist.err = mnist.plan.Setup()
		}
	})
	if mnist.err != nil {
		b.Fatal(mnist.err)
	}
	return mnist.plan, mnist.keys, mnist.spec
}

// BenchmarkProveParallelism measures the worker-pool proving engine at
// several worker counts (EXPERIMENTS.md records the scaling). On a 1-vCPU
// host the counts >1 only measure scheduling overhead; run on a multicore
// machine for real scaling numbers.
func BenchmarkProveParallelism(b *testing.B) {
	plan, keys, spec := compileMNIST(b)
	art, err := plan.Synthesize(spec.Input(2))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			parallel.SetWorkers(workers)
			defer parallel.SetWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plonkish.Prove(keys.PK, art.Instance, art.Witness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIPAOpen isolates the IPA opening, the prover-side cost of an IPA
// proof: log n rounds, each two commit-table MSMs over the basis.
func BenchmarkIPAOpen(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := pcs.NewIPA(n)
			p := make([]ff.Element, n)
			for i := range p {
				p[i] = ff.NewElement(uint64(i)*7 + 3)
			}
			s.Commit(p) // build the commit table outside the timed loop
			z := ff.NewElement(12345)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Open(transcript.New("bench"), p, z)
			}
		})
	}
}

// BenchmarkIPAVerify isolates the IPA opening check — the verifier-side
// cost that makes IPA proofs cheap to produce but linear-time to verify
// (Table 7's verification column). It is one MSM over the basis, the 2·log n
// cross terms and U, with the basis scalars built round by round from the
// challenges.
func BenchmarkIPAVerify(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := pcs.NewIPA(n)
			p := make([]ff.Element, n)
			for i := range p {
				p[i] = ff.NewElement(uint64(i)*7 + 3)
			}
			c := s.Commit(p)
			z := ff.NewElement(12345)
			o := s.Open(transcript.New("bench"), p, z)
			y := polyEval(p, z)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Verify(transcript.New("bench"), c, z, y, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIPALagrangeDerive measures what the first IPA commit from
// evaluations at 2^11 (mnist's domain) costs a process: the group-FFT
// derivation of the Lagrange basis, its commit-table build and the commit.
// plonkish.Setup pays it once per domain size, before keygen fans out.
func BenchmarkIPALagrangeDerive(b *testing.B) {
	const n = 1 << 11
	s := pcs.NewIPA(n)
	evals := make([]ff.Element, n)
	for i := range evals {
		evals[i] = ff.NewInt64(int64(i%17) - 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pcs.ResetLagrangeBases()
		b.StartTimer()
		s.CommitLagrange(evals)
	}
}

// polyEval evaluates a coefficient-form polynomial at z (Horner).
func polyEval(p []ff.Element, z ff.Element) ff.Element {
	var y ff.Element
	for i := len(p) - 1; i >= 0; i-- {
		y.Mul(&y, &z)
		y.Add(&y, &p[i])
	}
	return y
}

// §9.5: the cost estimator itself (it must be orders of magnitude cheaper
// than proving for Algorithm 1 to pay off).

func BenchmarkCostEstimate(b *testing.B) {
	plan, _, _ := compileMNIST(b)
	layout := plan.Layout
	calib := costmodel.StaticCalibration()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calib.EstimateProvingTime(layout)
	}
}

// BenchmarkOptimize runs Algorithm 1 on vgg-micro under the compile options
// of benchmark/ (static calibration, 6–24 columns, scale 6, lookup 10
// bits): the optimizer's own time and allocations, most of vgg-kzg's set-up.
func BenchmarkOptimize(b *testing.B) {
	spec, err := model.Get("vgg-micro")
	if err != nil {
		b.Fatal(err)
	}
	g, in := spec.Build(), spec.Input(1)
	opt := core.DefaultOptions(pcs.KZG, fixedpoint.Params{ScaleBits: 6, LookupBits: 10})
	opt.MinCols, opt.MaxCols = 6, 24
	opt.Calibration = costmodel.StaticCalibration()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.Optimize(g, in, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPow2Cliff quantifies §3's observation that "even a single extra
// row over a power of two would cause the proving time to nearly double":
// the same circuit proven on a 2^k grid vs the next power of two.
func BenchmarkPow2Cliff(b *testing.B) {
	for _, rows := range []int{1 << 10, 1 << 11} {
		b.Run(map[int]string{1 << 10: "2^10", 1 << 11: "2^11"}[rows], func(b *testing.B) {
			cfg := gadgets.DefaultConfig(10, benchFP)
			bd := gadgets.NewBuilder(cfg)
			experiments.BuildAdderMaxDot(bd, 64)
			if err := bd.Err(); err != nil {
				b.Fatal(err)
			}
			if bd.MinN() > rows {
				b.Fatalf("workload needs %d rows, grid %d too small", bd.MinN(), rows)
			}
			art, err := bd.Finalize(rows)
			if err != nil {
				b.Fatal(err)
			}
			pk, _, err := plonkish.Setup(art.CS, art.N, art.Fixed, pcs.KZG)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := plonkish.Prove(pk, art.Instance, art.Witness); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
