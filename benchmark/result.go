package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"
	"time"
)

// metricDef names one end-to-end metric: what a user of the system sees,
// its unit, and the share of the parent's median by which it may get worse
// before a change counts as a regression. All are lower-is-better.
// BENCHMARK.json carries the same list; a test keeps the two equal.
type metricDef struct {
	Name  string
	Unit  string
	Bound float64
}

var endToEnd = []metricDef{
	// The timing bounds are as wide as the driver allows because it accepts a
	// benchmark only if single runs spread less than the bound, and on the
	// shared 2-core reference box single runs of one commit spread up to 12%
	// (prove_s), 17% (verify_s) and 10% (setup_s) as the machine drifts.
	{"prove_s", "s", 0.25},
	{"verify_s", "s", 0.25},
	{"setup_s", "s", 0.25},
	// Set-up peaks repeat within 2% on the large workloads, but on mnist-ipa
	// garbage-collector pacing at a 68 MiB heap spreads single runs by 8%.
	{"peak_rss_mb", "MiB", 0.20},
	// Proof length repeats exactly; the smallest change a proof can see is
	// one 32-byte element, over 0.2% of the largest proof here.
	{"proof_bytes", "bytes", 0.001},
}

// unresolvedValue stands in for a metric's number when its samples are
// noisier than its bound.
const unresolvedValue = "unresolved"

// guardMinSamples is the fewest samples the noise guard judges: the
// quartiles of two or three values (one set-up per trial) say nothing about
// noise, so those metrics are held to their bounds only across runs.
const guardMinSamples = 4

// metricResult is one end-to-end metric on one workload. Value is the
// median, or the string "unresolved" when the samples stayed noisier than
// the metric's bound after one re-run; the samples are kept either way.
type metricResult struct {
	Unit  string `json:"unit"`
	Value any    `json:"value"`
	summary
	Samples []float64 `json:"samples"`
}

func newMetricResult(def metricDef, samples []float64) *metricResult {
	m := &metricResult{Unit: def.Unit, summary: summarize(samples), Samples: samples}
	m.Value = m.Median
	if m.N >= guardMinSamples && m.Spread > def.Bound {
		m.Value = unresolvedValue
	}
	return m
}

func (m *metricResult) unresolved() bool { return m.Value == unresolvedValue }

// status is the word the tables print beside a metric.
func (m *metricResult) status() string {
	if m.unresolved() {
		return unresolvedValue
	}
	return "ok"
}

// workloadResult is everything one run learned about one workload.
type workloadResult struct {
	workload
	Ops        int                      `json:"ops"`
	FailedOps  int                      `json:"failed_ops"`
	Failures   []string                 `json:"failures,omitempty"`
	K          int                      `json:"k"`
	AdviceCols int                      `json:"advice_cols"`
	Metrics    map[string]*metricResult `json:"metrics"`
	// Steal is the highest CPU steal share any trial's timed phase saw.
	Steal float64 `json:"steal"`
	// Reruns is 1 when the noise guard threw the first set of trials away.
	Reruns int            `json:"reruns"`
	Trials []*trialResult `json:"trials"`
}

// resultFile is what `run -out` writes and `compare`/`agree` read.
type resultFile struct {
	Schema     string            `json:"schema"`
	Conditions conditions        `json:"conditions"`
	Workloads  []*workloadResult `json:"workloads"`
	// Claim stays null: the benchmark measures, it does not claim a gain.
	Claim *string `json:"claim"`
}

const resultSchema = "zkml-benchmark/v1"

// runConfig is what one run of a workload needs to know.
type runConfig struct {
	Seed    int64
	Seconds int
	// GoldenDir holds the expected/<workload>.json files.
	GoldenDir string
	// UpdateGolden rewrites the golden file from this run instead of
	// checking against it.
	UpdateGolden bool
	// Rerun lets the noise guard repeat a workload whose samples spread
	// wider than a metric's bound. The driver-facing `measure` leaves it off:
	// one run there has a fixed time allowance and must print a number.
	Rerun bool
	// Scratch is a directory for fixtures, removed by the caller.
	Scratch string
}

// runTrials runs the workload's trials one after another, each in a fresh
// process (for the serve workload, a fresh daemon), splitting the measuring
// budget evenly between them.
func runTrials(w workload, cfg runConfig) ([]*trialResult, error) {
	budget := time.Duration(cfg.Seconds) * time.Second / time.Duration(w.Trials)
	var want *golden // nil accepts anything: the run is about to write it
	if !cfg.UpdateGolden {
		var err error
		if want, err = readGolden(cfg.GoldenDir, w.Name); err != nil {
			return nil, err
		}
	}
	var fixture *serveFixture
	if w.Serve {
		var err error
		if fixture, err = buildServeFixture(w, cfg.Scratch); err != nil {
			return nil, err
		}
	}
	var trials []*trialResult
	for t := 0; t < w.Trials; t++ {
		seed := cfg.Seed + int64(t)*10000
		var tr *trialResult
		var err error
		if w.Serve {
			tr, err = serveTrial(w, fixture, seed, budget)
		} else {
			tr = &trialResult{}
			err = runChild(tr, "trial", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-budget", budget.String())
		}
		if err != nil {
			return nil, fmt.Errorf("%s trial %d: %w", w.Name, t+1, err)
		}
		tr.op(want.check(tr.observed()), "golden check")
		trials = append(trials, tr)
	}
	return trials, nil
}

// pool folds the trials of one workload into its result: timed samples are
// pooled over all trials, set-up and peak memory contribute one sample per
// trial, and the plan and proof length must be the same in every trial.
func pool(w workload, trials []*trialResult) *workloadResult {
	res := &workloadResult{workload: w, Metrics: map[string]*metricResult{}, Trials: trials}
	samples := map[string][]float64{}
	first := trials[0]
	res.K, res.AdviceCols = first.K, first.AdviceCols
	for i, tr := range trials {
		res.Ops += tr.Ops
		res.FailedOps += tr.FailedOps
		res.Failures = append(res.Failures, tr.Failures...)
		res.Steal = max(res.Steal, tr.Steal)
		samples["prove_s"] = append(samples["prove_s"], tr.ProveS...)
		samples["verify_s"] = append(samples["verify_s"], tr.VerifyS...)
		samples["setup_s"] = append(samples["setup_s"], tr.SetupS)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], tr.PeakRSSMB)
		samples["proof_bytes"] = append(samples["proof_bytes"], float64(tr.ProofBytes))
		res.Ops++
		if tr.K != first.K || tr.AdviceCols != first.AdviceCols || tr.ProofBytes != first.ProofBytes {
			res.FailedOps++
			res.Failures = append(res.Failures, fmt.Sprintf("trial %d: k/advice_cols/proof_bytes %d/%d/%d differ from trial 1's %d/%d/%d",
				i+1, tr.K, tr.AdviceCols, tr.ProofBytes, first.K, first.AdviceCols, first.ProofBytes))
		}
	}
	for _, def := range endToEnd {
		res.Metrics[def.Name] = newMetricResult(def, samples[def.Name])
	}
	return res
}

// unresolved names the metrics whose spread exceeds their bound.
func (r *workloadResult) unresolved() []string {
	var names []string
	for _, def := range endToEnd {
		if r.Metrics[def.Name].unresolved() {
			names = append(names, def.Name)
		}
	}
	return names
}

// runWorkload measures one workload. The noise guard: if any metric's
// quartile spread exceeds its bound, the trials are run once more and the
// first set is discarded; a metric still wider than its bound is reported
// as "unresolved", with its samples, rather than as a number.
func runWorkload(w workload, cfg runConfig) (*workloadResult, error) {
	trials, err := runTrials(w, cfg)
	if err != nil {
		return nil, err
	}
	res := pool(w, trials)
	if cfg.Rerun && len(res.unresolved()) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: spread of %v above bound (steal %.1f%%), re-running once\n", w.Name, res.unresolved(), 100*res.Steal)
		if trials, err = runTrials(w, cfg); err != nil {
			return nil, err
		}
		res = pool(w, trials)
		res.Reruns = 1
	}
	if cfg.UpdateGolden {
		if res.FailedOps > 0 {
			return nil, fmt.Errorf("benchmark: %s: refusing to write a golden file from a run with failed ops: %v", w.Name, res.Failures)
		}
		if err := writeGolden(cfg.GoldenDir, w.Name, trials[0].observed()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *workloadResult) driverLine() driverLine {
	line := driverLine{Correct: r.FailedOps == 0, Attempted: r.Ops, Failed: r.FailedOps, Metrics: map[string]driverMetric{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = driverMetric{Value: m.Median, Unit: m.Unit}
	}
	return line
}

// printTable prints every end-to-end metric by name, with its unit, for
// every workload.
func printTable(out io.Writer, results []*workloadResult) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tn\tspread\tstatus")
	for _, r := range results {
		for _, def := range endToEnd {
			m := r.Metrics[def.Name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%.1f%%\t%s\n",
				r.Name, def.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N, 100*m.Spread, m.status())
			if m.Tail != 0 {
				fmt.Fprintf(tw, "%s\t%s p%d\t%s\t%.6g\t\t\t\t\t\n", r.Name, def.Name, m.Tail, m.Unit, m.TailValue)
			}
		}
		fmt.Fprintf(tw, "%s\tfailed_ops\tcount\t%d of %d\t\t\t\t\tsteal %.1f%%\n", r.Name, r.FailedOps, r.Ops, 100*r.Steal)
		for _, f := range r.Failures {
			fmt.Fprintf(tw, "%s\tFAILED\t\t%s\n", r.Name, f)
		}
	}
	tw.Flush()
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("benchmark: parsing %s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("benchmark: %s has schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}
