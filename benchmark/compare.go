package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdicts of compare and agree.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictAgree      = "agree"
	verdictDisagree   = "disagree"
)

// compareRow is one (workload, end-to-end metric) pair of two result files.
type compareRow struct {
	Workload, Metric, Unit string
	Old, New               float64
	// Ratio is New/Old; Old is its base.
	Ratio   float64
	Bound   float64
	Verdict string
}

// judge gives the verdict for one metric. All metrics are lower-is-better.
// A pair is unresolved when either side's own spread exceeded the bound: a
// difference cannot be told from noise there, so it is not reported as
// "same". Symmetric judging (agree) has no better or worse, only whether
// either side is beyond the bound of the other.
func judge(old, new *metricResult, bound float64, symmetric bool) (ratio float64, verdict string) {
	if old.Median != 0 {
		ratio = new.Median / old.Median
	}
	if old.unresolved() || new.unresolved() {
		return ratio, verdictUnresolved
	}
	worse, better := new.Median > old.Median*(1+bound), old.Median > new.Median*(1+bound)
	switch {
	case symmetric && (worse || better):
		return ratio, verdictDisagree
	case symmetric:
		return ratio, verdictAgree
	case worse:
		return ratio, verdictWorse
	case better:
		return ratio, verdictBetter
	}
	return ratio, verdictSame
}

// compareFiles lines two result files up, one row per (workload, metric),
// notes each workload's failed-op share, and lists what else disqualifies
// the pair: failed ops (a failed op counts as missing every bound), a
// changed plan, or a workload present on one side only.
func compareFiles(old, new *resultFile, symmetric bool) (rows []compareRow, notes, problems []string) {
	newByName := map[string]*workloadResult{}
	for _, w := range new.Workloads {
		newByName[w.Name] = w
	}
	for _, o := range old.Workloads {
		n, ok := newByName[o.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from the second file", o.Name))
			continue
		}
		delete(newByName, o.Name)
		notes = append(notes, fmt.Sprintf("%s: failed ops %d of %d in the first file, %d of %d in the second",
			o.Name, o.FailedOps, o.Ops, n.FailedOps, n.Ops))
		if o.FailedOps+n.FailedOps > 0 {
			problems = append(problems, fmt.Sprintf("%s: ops failed, and a failed op counts as missing every bound", o.Name))
		}
		if o.K != n.K || o.AdviceCols != n.AdviceCols {
			problems = append(problems, fmt.Sprintf("%s: plan changed from k=%d, advice_cols=%d to k=%d, advice_cols=%d",
				o.Name, o.K, o.AdviceCols, n.K, n.AdviceCols))
		}
		for _, def := range endToEnd {
			om, nm := o.Metrics[def.Name], n.Metrics[def.Name]
			if om == nil || nm == nil {
				problems = append(problems, fmt.Sprintf("%s: %s missing from one file", o.Name, def.Name))
				continue
			}
			ratio, verdict := judge(om, nm, def.Bound, symmetric)
			rows = append(rows, compareRow{Workload: o.Name, Metric: def.Name, Unit: def.Unit,
				Old: om.Median, New: nm.Median, Ratio: ratio, Bound: def.Bound, Verdict: verdict})
		}
	}
	for name := range newByName {
		problems = append(problems, fmt.Sprintf("%s: missing from the first file", name))
	}
	return rows, notes, problems
}

// passes reports whether a comparison lets a change through: compare fails
// on any "worse", agree on any "disagree" or "unresolved", both on any
// problem.
func passes(rows []compareRow, problems []string, symmetric bool) bool {
	if len(problems) > 0 {
		return false
	}
	for _, r := range rows {
		switch {
		case r.Verdict == verdictWorse, r.Verdict == verdictDisagree:
			return false
		case symmetric && r.Verdict == verdictUnresolved:
			return false
		}
	}
	return true
}

func printComparison(out io.Writer, rows []compareRow, notes, problems []string) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tratio (base: first)\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.4f of %.6g %s\t%.1f%%\t%s\n",
			r.Workload, r.Metric, r.Old, r.Unit, r.New, r.Unit, r.Ratio, r.Old, r.Unit, 100*r.Bound, r.Verdict)
	}
	tw.Flush()
	for _, n := range notes {
		fmt.Fprintln(out, n)
	}
	for _, p := range problems {
		fmt.Fprintln(out, "problem:", p)
	}
}
