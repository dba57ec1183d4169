package main

import (
	"encoding/json"
	"testing"

	"repro/zkml"
)

// TestTrialSmoke drives the whole trial path once on the cheapest bundled
// model: set-up, the correctness checks, one timed prove with its verifies,
// pooling, the golden round trip (write, read, check, and a mismatch caught)
// and the line the driver reads. It proves for real, so -short skips it.
func TestTrialSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("proves a model; skipped under -short")
	}
	w := workload{Name: "smoke", Model: "dlrm-micro", Backend: zkml.KZG, Trials: 1, VerifiesPerProve: 2, Tolerance: 0.02}
	tr, err := inprocTrial(w, 1, 0) // a zero budget still runs one rep
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeGolden(dir, w.Name, tr.observed()); err != nil {
		t.Fatal(err)
	}
	want, err := readGolden(dir, w.Name)
	if err != nil {
		t.Fatal(err)
	}
	tr.op(want.check(tr.observed()), "golden check")
	res := pool(w, []*trialResult{tr})
	if res.FailedOps != 0 {
		t.Fatalf("%d of %d ops failed on a clean tree: %v", res.FailedOps, res.Ops, res.Failures)
	}
	if len(tr.ProveS) != 1 || len(tr.VerifyS) != w.VerifiesPerProve {
		t.Errorf("%d prove and %d verify samples; want 1 and %d", len(tr.ProveS), len(tr.VerifyS), w.VerifiesPerProve)
	}
	if tr.TimedSetupWork.CommitTableBuilds != 0 || tr.TimedSetupWork.CommitTableHits == 0 {
		t.Errorf("timed prove set-up work %+v; want table hits and no builds", tr.TimedSetupWork)
	}

	line := res.driverLine()
	if !line.Correct || line.Attempted != res.Ops || line.Failed != 0 {
		t.Errorf("driver line %+v; want correct with %d attempted", line, res.Ops)
	}
	for _, def := range endToEnd {
		if m, ok := line.Metrics[def.Name]; !ok || m.Value <= 0 || m.Unit != def.Unit {
			t.Errorf("driver line metric %s = %+v; want a positive value in %s", def.Name, m, def.Unit)
		}
	}
	if _, err := json.Marshal(line); err != nil {
		t.Errorf("driver line does not marshal: %v", err)
	}

	drifted := *tr.observed()
	drifted.ProofBytes++
	drifted.Outputs = append([]float64(nil), drifted.Outputs...)
	drifted.Outputs[0] += 1.0 / 64
	if err := want.check(&drifted); err == nil {
		t.Error("golden check accepted a proof one byte longer with a changed output")
	}
}
