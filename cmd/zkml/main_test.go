package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/curve"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/zkml"
)

// TestVerifyFromKeysDoesNoProvingWork is the regression test for the old
// `zkml verify` behavior, which recompiled the model — full optimizer
// sweep, keygen MSMs, SRS extension — just to recover the verifying key.
// With a key store, building the verifier side must involve zero MSM work
// and zero SRS setup, and the resulting system must still verify real
// proofs (and refuse to prove).
func TestVerifyFromKeysDoesNoProvingWork(t *testing.T) {
	spec, err := zkml.Model("dlrm-micro")
	if err != nil {
		t.Fatal(err)
	}
	o := zkml.Options{ScaleBits: 6, LookupBits: 10, MaxCols: 20}
	sys, err := zkml.Compile(spec.Build(), spec.Input(1), o)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sys.Prove(spec.Input(7))
	if err != nil {
		t.Fatal(err)
	}
	proof := &zkml.ShardedProof{Chunks: []*zkml.Proof{plain}}
	dir := t.TempDir()
	if _, err := sys.Save(dir); err != nil {
		t.Fatal(err)
	}

	var counters obs.KernelCounters
	prev := curve.SetKernelTrace(&counters)
	before := pcs.SetupWorkSnapshot()
	verifier, err := verifierSystem(dir, spec, 1, o)
	setup := pcs.SetupWorkSnapshot().Sub(before)
	curve.SetKernelTrace(prev)
	if err != nil {
		t.Fatal(err)
	}
	var msms int64
	for i := range counters.MSM {
		msms += counters.MSM[i].Load()
	}
	if msms != 0 {
		t.Fatalf("verifier construction performed %d MSMs, want 0", msms)
	}
	if !setup.IsZero() {
		t.Fatalf("verifier construction did SRS setup work: %+v", setup)
	}
	if err := verifier.Verify(proof); err != nil {
		t.Fatalf("stored-VK verifier rejected a valid proof: %v", err)
	}
	if _, err := verifier.Prove(spec.Input(7)); err == nil {
		t.Fatal("verifier-only system agreed to prove")
	}
	// A populated store also short-circuits the prove side: loading does no
	// setup work either.
	before = pcs.SetupWorkSnapshot()
	warm, fromStore, err := zkml.LoadOrCompile(dir, spec.Build(), spec.Input(1), 1, o)
	if err != nil || !fromStore {
		t.Fatalf("LoadOrCompile over a populated store: fromStore=%v err=%v", fromStore, err)
	}
	if d := pcs.SetupWorkSnapshot().Sub(before); !d.IsZero() {
		t.Fatalf("warm LoadOrCompile did SRS setup work: %+v", d)
	}
	warmProof, err := warm.Prove(spec.Input(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := verifier.Verify(warmProof); err != nil {
		t.Fatal(err)
	}
}

// traceJSON builds a minimal well-formed trace payload whose cost-model
// total row carries the given relative error.
func traceJSON(t *testing.T, relErr float64) []byte {
	t.Helper()
	rep := &obs.Report{TotalSeconds: 1}
	for _, name := range obs.StageNames() {
		rep.Stages = append(rep.Stages, obs.StageTiming{Stage: name, Seconds: 0.2})
	}
	cmp := []obs.StageComparison{
		{Stage: "commit", PredictedSeconds: 0.2, MeasuredSeconds: 0.2},
		{Stage: "total", PredictedSeconds: 1 + relErr, MeasuredSeconds: 1, RelErr: relErr},
	}
	data, err := json.Marshal(traceFile{Schema: traceFileSchema, Model: "m", Backend: "kzg", Report: rep, CostModel: cmp})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckTraceRelErrGate(t *testing.T) {
	// Pass: within threshold (both signs), and disabled gate ignores error.
	for _, relErr := range []float64{0.2, -0.2, 0} {
		if _, err := checkTrace(traceJSON(t, relErr), 0.3); err != nil {
			t.Fatalf("rel_err %v rejected at threshold 0.3: %v", relErr, err)
		}
	}
	if _, err := checkTrace(traceJSON(t, -0.9), 0); err != nil {
		t.Fatalf("disabled gate rejected report: %v", err)
	}
	// Fail: beyond threshold, both signs.
	for _, relErr := range []float64{0.5, -0.5} {
		_, err := checkTrace(traceJSON(t, relErr), 0.3)
		if err == nil {
			t.Fatalf("rel_err %v passed threshold 0.3", relErr)
		}
		if !strings.Contains(err.Error(), "max-rel-err") {
			t.Fatalf("gate failure does not name the flag: %v", err)
		}
	}
}

func TestCheckTraceSchema(t *testing.T) {
	if _, err := checkTrace([]byte("{nope"), 0); err == nil {
		t.Fatal("unparseable report accepted")
	}
	if _, err := checkTrace([]byte(`{"schema":"other/v9"}`), 0); err == nil {
		t.Fatal("wrong schema accepted")
	}
	// Valid schema but no total row: the gate must fail closed, not pass
	// vacuously.
	rep := &obs.Report{TotalSeconds: 1}
	for _, name := range obs.StageNames() {
		rep.Stages = append(rep.Stages, obs.StageTiming{Stage: name, Seconds: 0.2})
	}
	data, err := json.Marshal(traceFile{Schema: traceFileSchema, Report: rep,
		CostModel: []obs.StageComparison{{Stage: "commit"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkTrace(data, 0.3); err == nil {
		t.Fatal("missing total row passed the rel-err gate")
	}
	if _, err := checkTrace(data, 0); err != nil {
		t.Fatalf("schema-only check rejected total-less comparison: %v", err)
	}
}
