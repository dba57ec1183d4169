package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/pcs"
	"repro/internal/poly"
	"repro/internal/transcript"
)

// Kernel probes time single calls into the layers under the prover, at the
// sizes a workload's circuit uses. They run after the traced prove, in the
// same fresh process, so they see the caches the prove left behind — except
// where a probe is defined as cold and resets them.

const (
	// probeReps is the sample count a probe aims for.
	probeReps = 9
	// probeMinReps is what a probe settles for when one call is so slow that
	// probeReps of them would not fit its share of the run's budget.
	probeMinReps = 3
)

// probe times fn probeReps times, stopping early (but not below
// probeMinReps) once the budget is spent, and summarizes seconds per call.
// prepare, when not nil, runs untimed before every call.
func probe(budget time.Duration, prepare, fn func()) summary {
	var samples []float64
	began := time.Now()
	for len(samples) < probeReps {
		if len(samples) >= probeMinReps && time.Since(began) > budget {
			break
		}
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		fn()
		samples = append(samples, time.Since(start).Seconds())
	}
	return summarize(samples)
}

// msmInput returns n distinct points (i+1)·G and full-width scalars
// (s <- s² + i): small scalars would leave most bucket windows empty and
// understate the cost.
func msmInput(n int) ([]curve.Affine, []ff.Element) {
	g := curve.Generator()
	jacs := make([]curve.Jac, n)
	scalars := make([]ff.Element, n)
	var acc curve.Jac
	s := ff.NewElement(3)
	for i := 0; i < n; i++ {
		acc.AddMixed(&g)
		jacs[i] = acc
		s.Mul(&s, &s)
		inc := ff.NewElement(uint64(i + 1))
		s.Add(&s, &inc)
		scalars[i] = s
	}
	return curve.BatchToAffine(jacs), scalars
}

// sink keeps the compiler from discarding a probed computation.
var sink ff.Element

// ffProbes times the field: nanoseconds per multiplication and per
// inversion, each over a dependent chain so the calls cannot overlap.
func ffProbes(budget time.Duration) map[string]summary {
	const mulOps, invOps = 1_000_000, 100_000
	perOp := func(ops int, s summary) summary {
		scale := 1e9 / float64(ops)
		s.Median, s.Q1, s.Q3 = s.Median*scale, s.Q1*scale, s.Q3*scale
		return s
	}
	x := ff.NewElement(0x9e3779b97f4a7c15)
	mul := probe(budget, nil, func() {
		acc := x
		for i := 0; i < mulOps; i++ {
			acc.Mul(&acc, &x)
		}
		sink = acc
	})
	one := ff.One()
	inv := probe(budget, nil, func() {
		acc := x
		for i := 0; i < invOps; i++ {
			acc.Inverse(&acc)
			acc.Add(&acc, &one)
		}
		sink = acc
	})
	return map[string]summary{"ff_mul_ns": perOp(mulOps, mul), "ff_inv_ns": perOp(invOps, inv)}
}

// polyProbes times the NTT and the coset NTT at the circuit's domain size
// and at its extended (quotient) domain size.
func polyProbes(k, extK int, budget time.Duration) map[string]summary {
	out := map[string]summary{}
	for _, size := range []struct {
		suffix string
		logN   int
	}{{"", k}, {"_ext", extK}} {
		d := poly.NewDomain(1 << uint(size.logN))
		v := make([]ff.Element, d.N)
		for i := range v {
			v[i] = ff.NewElement(uint64(i + 1))
		}
		d.FFT(v) // builds the twiddle tables outside the timed calls
		d.CosetFFT(v)
		out["ntt"+size.suffix+"_s"] = probe(budget, nil, func() { d.FFT(v) })
		out["coset_ntt"+size.suffix+"_s"] = probe(budget, nil, func() { d.CosetFFT(v) })
	}
	return out
}

// curveProbes times the variable-base MSM, the fixed-base table build and
// the table-warm MSM over 2^k points.
func curveProbes(k int, budget time.Duration) (map[string]summary, error) {
	points, scalars := msmInput(1 << uint(k))
	out := map[string]summary{}
	out["msm_var_s"] = probe(budget, nil, func() { curve.MSM(points, scalars) })
	var table *curve.FixedBaseTable
	out["table_build_s"] = probe(budget, nil, func() { table = curve.NewFixedBaseTable(points) })
	if table == nil {
		return nil, fmt.Errorf("benchmark: fixed-base table for 2^%d points exceeds its memory budget", k)
	}
	out["msm_fixed_s"] = probe(budget, nil, func() { table.MSM(scalars) })
	return out, nil
}

// commitProbes times a backend's Commit at 2^k coefficients: cold (the
// commit table is dropped before every call, so the call rebuilds it, as the
// first commitment after a key load does) and warm.
func commitProbes(backend pcs.Backend, k int, budget time.Duration) (map[string]summary, pcs.Scheme, error) {
	scheme, err := pcs.New(backend, 1<<uint(k))
	if err != nil {
		return nil, nil, err
	}
	_, scalars := msmInput(1 << uint(k))
	out := map[string]summary{}
	out["commit_cold_s"] = probe(budget, pcs.ResetCommitTables, func() { scheme.Commit(scalars) })
	scheme.Commit(scalars) // the cold probe's last reset left no table behind
	out["commit_warm_s"] = probe(budget, nil, func() { scheme.Commit(scalars) })
	return out, scheme, nil
}

// pcsProbes is commitProbes plus one opening and its verification.
func pcsProbes(backend pcs.Backend, k int, budget time.Duration) (map[string]summary, error) {
	out, scheme, err := commitProbes(backend, k, budget)
	if err != nil {
		return nil, err
	}
	_, p := msmInput(1 << uint(k))
	z := ff.NewElement(7)
	c, y := scheme.Commit(p), poly.Eval(p, z)
	var opening *pcs.Opening
	out["open_s"] = probe(budget, nil, func() { opening = scheme.Open(transcript.New("benchmark"), p, z) })
	var verr error
	out["pcs_verify_s"] = probe(budget, nil, func() { verr = scheme.Verify(transcript.New("benchmark"), c, z, y, opening) })
	if verr != nil {
		return nil, fmt.Errorf("benchmark: %s opening at 2^%d did not verify: %w", backend, k, verr)
	}
	return out, nil
}

// sweepSizes are the sizes of the BENCH_9 anomaly sweep.
var sweepSizes = []int{11, 12, 13}

// sweepRow is one size of the sweep: the curve-level MSMs, and each
// backend's commit path, as seconds per call.
type sweepRow struct {
	LogN   int                `json:"log2_n"`
	Probes map[string]summary `json:"probes"`
}

// anomalySweep repeats, with quartiles, the four numbers BENCH_8 and BENCH_9
// disagreed on without a kernel change: variable-base against table-warm
// MSM, and cold against warm commit, at 2^11..2^13 on both backends.
func anomalySweep(budget time.Duration) ([]sweepRow, error) {
	var rows []sweepRow
	for _, k := range sweepSizes {
		row := sweepRow{LogN: k, Probes: map[string]summary{}}
		cp, err := curveProbes(k, budget)
		if err != nil {
			return nil, err
		}
		for name, s := range cp {
			row.Probes[name] = s
		}
		for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
			pp, _, err := commitProbes(backend, k, budget)
			if err != nil {
				return nil, err
			}
			for name, s := range pp {
				row.Probes[backend.String()+"/"+name] = s
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// printSweep prints the anomaly sweep, one row per size and probe.
func printSweep(rows []sweepRow) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "sweep\tprobe\tmedian s\tq1\tq3\tn")
	names := []string{"msm_var_s", "msm_fixed_s", "table_build_s", "KZG/commit_cold_s", "KZG/commit_warm_s", "IPA/commit_cold_s", "IPA/commit_warm_s"}
	for _, row := range rows {
		for _, name := range names {
			p := row.Probes[name]
			fmt.Fprintf(tw, "2^%d\t%s\t%.5f\t%.5f\t%.5f\t%d\n", row.LogN, name, p.Median, p.Q1, p.Q3, p.N)
		}
	}
	tw.Flush()
}
