package plonkish

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/pcs"
)

// TestTracedProofBytesIdentical proves the same circuit with the same seeded
// randomness once untraced and once traced, and requires byte-identical
// proofs: observability must never perturb the transcript, the blinding
// draws, or any committed value.
func TestTracedProofBytesIdentical(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			pk, vk := setup(t, backend)
			defer ff.SetRandomSource(nil)

			ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("trace-test"))})
			plain, err := Prove(pk, testInstance(24), testWitness(false, false, false))
			if err != nil {
				t.Fatal(err)
			}
			ff.SetRandomSource(&ctrReader{seed: sha256.Sum256([]byte("trace-test"))})
			trace := obs.NewTrace()
			traced, err := ProveTraced(pk, testInstance(24), testWitness(false, false, false), trace)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, testInstance(24), traced); err != nil {
				t.Fatalf("traced proof does not verify: %v", err)
			}

			pb, err := plain.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			tb, err := traced.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb, tb) {
				t.Fatal("proof bytes differ between traced and untraced runs")
			}
		})
	}
}

// TestTraceReportShape checks the report of a real prove: all five stages in
// execution order, stage times summing to roughly the total (the stages are
// contiguous, so only clock-read gaps separate them), and kernel counters
// that actually saw the prover's FFTs, MSMs, and openings.
func TestTraceReportShape(t *testing.T) {
	for _, backend := range []pcs.Backend{pcs.KZG, pcs.IPA} {
		t.Run(backend.String(), func(t *testing.T) {
			pk, _ := setup(t, backend)
			trace := obs.NewTrace()
			if _, err := ProveTraced(pk, testInstance(24), testWitness(false, false, false), trace); err != nil {
				t.Fatal(err)
			}
			r := trace.Report()
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, st := range r.Stages {
				sum += st.Seconds
			}
			// Stage transitions are back-to-back; allow 5% of total plus a
			// small floor for clock granularity on very fast proves.
			if slack := 0.05*r.TotalSeconds + 1e-3; math.Abs(sum-r.TotalSeconds) > slack {
				t.Fatalf("stage sum %v vs total %v exceeds slack %v", sum, r.TotalSeconds, slack)
			}
			if r.FFTCount == 0 || r.MSMCount == 0 {
				t.Fatalf("kernel counters empty: fft=%d msm=%d", r.FFTCount, r.MSMCount)
			}
			if r.Opens == 0 {
				t.Fatalf("no PCS openings recorded")
			}
			if r.QuotientOps != pk.Quotient.Len() || r.QuotientVaryingOps != pk.Quotient.Varying() || r.QuotientVaryingOps == 0 {
				t.Fatalf("quotient program recorded as %d ops / %d varying, key has %d / %d",
					r.QuotientOps, r.QuotientVaryingOps, pk.Quotient.Len(), pk.Quotient.Varying())
			}
		})
	}
}

// TestProveAfterTraceLeavesSinksDisarmed makes sure ProveTraced restores the
// kernel sinks on exit: a later untraced Prove must not record into the old
// trace's counters.
func TestProveAfterTraceLeavesSinksDisarmed(t *testing.T) {
	pk, _ := setup(t, pcs.KZG)
	trace := obs.NewTrace()
	if _, err := ProveTraced(pk, testInstance(24), testWitness(false, false, false), trace); err != nil {
		t.Fatal(err)
	}
	before := trace.Report()
	if _, err := Prove(pk, testInstance(24), testWitness(false, false, false)); err != nil {
		t.Fatal(err)
	}
	after := trace.Report()
	if before.FFTCount != after.FFTCount || before.MSMCount != after.MSMCount {
		t.Fatalf("untraced Prove recorded into a finished trace: fft %d->%d msm %d->%d",
			before.FFTCount, after.FFTCount, before.MSMCount, after.MSMCount)
	}
}
