package main

import (
	"encoding/json"
	"testing"
)

func metric(def metricDef, samples ...float64) *metricResult { return newMetricResult(def, samples) }

var proveDef = metricDef{"prove_s", "s", 0.10}

func TestJudgeVerdicts(t *testing.T) {
	base := metric(proveDef, 1.00, 1.01, 0.99, 1.00)
	cases := []struct {
		name      string
		new       *metricResult
		symmetric bool
		want      string
	}{
		{"within the bound", metric(proveDef, 1.05, 1.06, 1.05, 1.04), false, verdictSame},
		{"slower than the bound", metric(proveDef, 1.12, 1.13, 1.12, 1.11), false, verdictWorse},
		{"faster than the bound", metric(proveDef, 0.85, 0.86, 0.85, 0.84), false, verdictBetter},
		{"too noisy to tell", metric(proveDef, 0.9, 1.3, 1.1, 1.6), false, verdictUnresolved},
		{"agree within the bound", metric(proveDef, 1.05, 1.06, 1.05, 1.04), true, verdictAgree},
		{"disagree when slower", metric(proveDef, 1.12, 1.13, 1.12, 1.11), true, verdictDisagree},
		{"disagree when faster", metric(proveDef, 0.85, 0.86, 0.85, 0.84), true, verdictDisagree},
		{"agree cannot resolve noise either", metric(proveDef, 0.9, 1.3, 1.1, 1.6), true, verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(base, c.new, proveDef.Bound, c.symmetric); got != c.want {
			t.Errorf("%s: verdict %q; want %q", c.name, got, c.want)
		}
	}
	// Noise on the base side is as disqualifying as noise on the new side.
	noisy := metric(proveDef, 0.9, 1.3, 1.1, 1.6)
	if _, got := judge(noisy, base, proveDef.Bound, false); got != verdictUnresolved {
		t.Errorf("noisy base: verdict %q; want %q", got, verdictUnresolved)
	}
	if ratio, _ := judge(base, metric(proveDef, 1.5, 1.5, 1.5), proveDef.Bound, false); !near(ratio, 1.5) {
		t.Errorf("ratio = %v; want new/old = 1.5", ratio)
	}
}

func TestUnresolvedMetricKeepsSamplesNotANumber(t *testing.T) {
	m := metric(proveDef, 0.9, 1.3, 1.1, 1.6)
	if !m.unresolved() || m.Value != "unresolved" || len(m.Samples) != 4 {
		t.Errorf("noisy metric reported as %+v; want value \"unresolved\" with its 4 samples", m)
	}
	// compare and agree read the verdict back from a result file.
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back metricResult
	if err := json.Unmarshal(data, &back); err != nil || !back.unresolved() || back.Median != m.Median {
		t.Errorf("unresolved metric read back from JSON as %+v (err %v)", back, err)
	}
	if m := metric(proveDef, 1, 1.01, 1.02, 1); m.unresolved() || m.Value != m.Median {
		t.Errorf("steady metric reported as %+v; want its median", m)
	}
}

// fileWith builds a result file with one workload whose every metric is
// steady at the given prove time.
func fileWith(prove float64, failedOps, k int) *resultFile {
	w := &workloadResult{workload: workload{Name: "mnist-kzg"}, Ops: 100, FailedOps: failedOps, K: k, AdviceCols: 8,
		Metrics: map[string]*metricResult{}}
	for _, def := range endToEnd {
		v := 1.0
		if def.Name == "prove_s" {
			v = prove
		}
		w.Metrics[def.Name] = metric(def, v, v, v)
	}
	return &resultFile{Schema: resultSchema, Workloads: []*workloadResult{w}}
}

func TestCompareFilesPassesAndFails(t *testing.T) {
	// Whatever bound the benchmark fixes for prove_s, a fifth of it is the
	// same and twice it is worse.
	same, worse := 1+endToEnd[0].Bound/5, 1+2*endToEnd[0].Bound
	cases := []struct {
		name      string
		old, new  *resultFile
		symmetric bool
		pass      bool
	}{
		{"same numbers", fileWith(1, 0, 11), fileWith(same, 0, 11), false, true},
		{"better still passes compare", fileWith(1, 0, 11), fileWith(0.5, 0, 11), false, true},
		{"worse fails compare", fileWith(1, 0, 11), fileWith(worse, 0, 11), false, false},
		{"better fails agree: same commit must repeat", fileWith(1, 0, 11), fileWith(0.5, 0, 11), true, false},
		{"a failed op misses every bound", fileWith(1, 0, 11), fileWith(1, 1, 11), false, false},
		{"a changed plan is not comparable", fileWith(1, 0, 11), fileWith(1, 0, 12), false, false},
		{"a missing workload fails", fileWith(1, 0, 11), &resultFile{Schema: resultSchema}, false, false},
	}
	for _, c := range cases {
		rows, _, problems := compareFiles(c.old, c.new, c.symmetric)
		if got := passes(rows, problems, c.symmetric); got != c.pass {
			t.Errorf("%s: passes = %v; want %v (rows %+v, problems %v)", c.name, got, c.pass, rows, problems)
		}
	}
	rows, notes, _ := compareFiles(fileWith(1, 0, 11), fileWith(worse, 3, 11), false)
	if len(rows) != len(endToEnd) {
		t.Errorf("%d rows; want one per end-to-end metric (%d)", len(rows), len(endToEnd))
	}
	if len(notes) != 1 || notes[0] != "mnist-kzg: failed ops 0 of 100 in the first file, 3 of 100 in the second" {
		t.Errorf("failed-op share note = %q", notes)
	}
}

// Unresolved is tolerated by compare (it is not a regression) but not by
// agree (two sets of one commit must resolve).
func TestUnresolvedPassesCompareButNotAgree(t *testing.T) {
	noisy := fileWith(1, 0, 11)
	noisy.Workloads[0].Metrics["prove_s"] = metric(proveDef, 0.9, 1.3, 1.1, 1.6)
	for _, symmetric := range []bool{false, true} {
		rows, _, problems := compareFiles(fileWith(1, 0, 11), noisy, symmetric)
		if got, want := passes(rows, problems, symmetric), !symmetric; got != want {
			t.Errorf("symmetric=%v: passes = %v; want %v", symmetric, got, want)
		}
	}
}
