package main

import (
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/gadgets"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/poly"
	"repro/zkml"
)

// traceResult is what one traced run of one workload produces. It is never
// mixed with the end-to-end run: end-to-end metrics are measured with
// tracing off, and the difference between the two is the tracing overhead.
type traceResult struct {
	Workload string `json:"workload"`
	// Metrics holds every per-layer metric by name.
	Metrics map[string]float64 `json:"metrics"`
	// Probes are the kernel probes with their quartiles and sample counts.
	Probes map[string]summary `json:"probes"`
	// ProveWaterfall splits the traced prove; SetupWaterfall splits set-up.
	ProveWaterfall waterfall `json:"prove_waterfall"`
	SetupWaterfall waterfall `json:"setup_waterfall"`
	// SelfSeconds is self time summed by span name.
	SelfSeconds map[string]float64 `json:"self_seconds"`
	Spans       []span             `json:"spans"`
	Ops         int                `json:"ops"`
	FailedOps   int                `json:"failed_ops"`
	Failures    []string           `json:"failures,omitempty"`
}

// tracer carries the state of one traced run.
type tracer struct {
	w     workload
	spec  model.Spec
	graph *model.Graph
	rec   *recorder
	res   *traceResult
	// checks counts ops the way a trial does.
	checks trialResult
	// samples collects the repeated span durations whose medians become
	// metrics.
	samples map[string][]float64
}

// timed runs fn inside a span and files its duration under the span's name.
func (t *tracer) timed(parent int, request, name string, fn func() error) error {
	id := t.rec.begin(parent, request, name)
	err := fn()
	t.samples[name] = append(t.samples[name], t.rec.end(id))
	return err
}

// tracedRun is the traced run of one workload, in a process that has done
// nothing else. It records a span around every call into a layer, runs
// untraced proves and one traced prove, then the store and kernel probes,
// and for the serve workload repeats set-up and one traced request against a
// real daemon. Spans live here, outside the program.
func tracedRun(w workload, seed int64, seconds int, scratch string) (*traceResult, error) {
	pinProcess()
	spec, err := zkml.Model(w.Model)
	if err != nil {
		return nil, err
	}
	t := &tracer{
		w: w, spec: spec, graph: spec.Build(), rec: newRecorder(),
		res:     &traceResult{Workload: w.Name, Metrics: map[string]float64{}, Probes: map[string]summary{}},
		samples: map[string][]float64{},
	}
	for _, m := range perLayer {
		t.res.Metrics[m.Name] = 0
	}
	// Kernel probes get a fixed share of the run's budget each; the proves
	// take what they take.
	probeBudget := time.Duration(seconds) * time.Second / 16

	sys, err := t.setUp()
	if err != nil {
		return nil, err
	}
	if err := t.proves(sys, seed); err != nil {
		return nil, err
	}
	if err := t.storeProbes(scratch); err != nil {
		return nil, err
	}
	if err := t.kernelProbes(sys, probeBudget); err != nil {
		return nil, err
	}
	if w.Serve {
		if err := t.daemonRun(seed, scratch); err != nil {
			return nil, err
		}
	}

	m := t.res.Metrics
	for _, name := range []string{"synthesize", "plonkish_prove", "export", "import", "plonkish_verify"} {
		m[name+"_s"] = median(t.samples[name])
	}
	m["unattributed_s"] = t.res.ProveWaterfall.Unattributed
	m["unattributed_share"] = t.res.ProveWaterfall.UnattributedShare
	m["traced_prove_s"] = t.res.ProveWaterfall.Total
	m["traced_setup_s"] = t.res.SetupWaterfall.Total
	m["setup_unattributed_s"] = t.res.SetupWaterfall.Unattributed
	if m["traced_prove_s"] > 0 {
		m["stage_open_share"] = m["stage_open_s"] / m["traced_prove_s"]
	}
	for name, s := range t.res.Probes {
		m[name] = s.Median
	}
	self := selfTimes(t.rec.spans)
	t.res.SelfSeconds = map[string]float64{}
	for _, s := range t.rec.spans {
		t.res.SelfSeconds[s.Name] += self[s.ID]
	}
	t.res.Spans = t.rec.spans
	t.res.Ops, t.res.FailedOps, t.res.Failures = t.checks.Ops, t.checks.FailedOps, t.checks.Failures
	return t.res, nil
}

// setUp performs the cold set-up piece by piece, through the same public
// calls zkml.Compile is made of, so each piece gets a span: the optimizer,
// the synthesis of the sample input, key generation (with the SRS growth it
// triggers), and the warm-up prove that builds the commit tables.
func (t *tracer) setUp() (*zkml.System, error) {
	sample := t.spec.Input(goldenSeed)
	const req = "setup"
	root := t.rec.begin(0, req, "setup")
	var plan *core.Plan
	var stats core.Stats
	err := t.timed(root, req, "optimize", func() (err error) {
		plan, _, stats, err = zkml.Optimize(t.graph, sample, t.w.options())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("optimize %s: %w", t.w.Model, err)
	}
	id := t.rec.begin(root, req, "keygen_synthesize")
	art, err := plan.Synthesize(sample)
	keygenSynth := t.rec.end(id)
	if err != nil {
		return nil, err
	}
	var keys core.Keys
	err = t.timed(root, req, "keygen", func() (err error) {
		keys.PK, keys.VK, err = plonkish.Setup(art.CS, art.N, art.Fixed, plan.Backend)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("keygen %s: %w", t.w.Model, err)
	}
	sys := &zkml.System{Plan: plan, Keys: &keys}
	err = t.timed(root, req, "warmup_prove", func() error {
		_, err := sys.Prove(sample)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up prove %s: %w", t.w.Model, err)
	}
	total := t.rec.end(root)

	m := t.res.Metrics
	m["optimize_s"], m["keygen_s"] = t.samples["optimize"][0], t.samples["keygen"][0]
	m["warmup_prove_s"] = t.samples["warmup_prove"][0]
	m["candidates_evaluated"] = float64(stats.Evaluated)
	m["rows_used"], m["k"], m["advice_cols"] = float64(plan.UsedRows), float64(plan.K), float64(plan.Config.NumCols)
	m["lookups"], m["constraints"] = float64(plan.Layout.NumLookups), float64(plan.Layout.NumConstraints)
	t.res.SetupWaterfall = newWaterfall(total,
		part{Name: "optimize_s", Seconds: m["optimize_s"]},
		part{Name: "keygen_synthesize_s", Seconds: keygenSynth},
		part{Name: "keygen_s", Seconds: m["keygen_s"]},
		part{Name: "warmup_prove_s", Seconds: m["warmup_prove_s"]})
	return sys, nil
}

// untracedProves is how many proves run with the prover's tracing off
// before the traced one; their median is the base of trace_overhead.
const untracedProves = 2

// verifyReps is how many times the traced run verifies its proof.
const verifyReps = probeReps

// proves runs the untraced proves and the traced prove, each as the calls
// System.Prove and ExportProof are made of with a span around each, then
// verifies the traced proof repeatedly.
func (t *tracer) proves(sys *zkml.System, seed int64) error {
	plan, keys := sys.Plan, sys.Keys
	workBefore := pcs.SetupWorkSnapshot()
	var untraced []float64
	var data []byte
	var report *obs.Report
	var tracedRoot int
	for i := int64(1); i <= untracedProves+1; i++ {
		traced := i == untracedProves+1
		in := t.spec.Input(seed + i)
		req := fmt.Sprintf("prove-%d", seed+i)
		root := t.rec.begin(0, req, "prove")
		var art *gadgets.Artifact
		err := t.timed(root, req, "synthesize", func() (err error) {
			art, err = plan.Synthesize(in)
			return err
		})
		var proof *plonkish.Proof
		var proveSpan int
		if err == nil {
			name := "plonkish_prove"
			var trace *obs.Trace
			if traced {
				// Filed apart so the traced prove never enters the untraced median.
				name, trace = "plonkish_prove_traced", obs.NewTrace()
			}
			proveSpan = t.rec.begin(root, req, name)
			proof, err = plonkish.ProveTraced(keys.PK, art.Instance, art.Witness, trace)
			t.samples[name] = append(t.samples[name], t.rec.end(proveSpan))
			report = trace.Report()
		}
		var full *zkml.Proof
		if err == nil {
			full = &zkml.Proof{Proof: proof, Instance: art.Instance}
			err = t.timed(root, req, "export", func() (err error) {
				data, err = sys.ExportProof(full)
				return err
			})
		}
		total := t.rec.end(root)
		if !t.checks.op(err, "prove of input %d", seed+i) {
			return fmt.Errorf("prove of input %d: %w", seed+i, err)
		}
		t.checks.op(checkAgainstFloat(t.graph, in, sys.Outputs(full), t.w.Tolerance), "FP32 cross-check of input %d", seed+i)
		if traced {
			tracedRoot = root
			// The prover reports its five stages; place them as child spans of
			// the prove span so self time shows what the stages leave out.
			at := t.rec.get(proveSpan).Start
			for _, st := range report.Stages {
				t.rec.add(proveSpan, req, "stage_"+st.Stage, at, st.Seconds)
				at += st.Seconds
			}
		} else {
			untraced = append(untraced, total)
		}
	}
	work := pcs.SetupWorkSnapshot().Sub(workBefore)

	m := t.res.Metrics
	m["commit_table_builds"], m["commit_table_hits"] = float64(work.CommitTableBuilds), float64(work.CommitTableHits)
	t.checks.op(noTableBuilds(work), "commit tables during warm proves")
	m["msms"], m["fixed_msms"], m["ffts"] = float64(report.MSMCount), float64(report.FixedMSMCount), float64(report.FFTCount)
	parts := []part{{Name: "synthesize_s", Seconds: lastOf(t.samples["synthesize"])}}
	for _, st := range report.Stages {
		m["stage_"+st.Stage+"_s"] = st.Seconds
		parts = append(parts, part{Name: "stage_" + st.Stage + "_s", Seconds: st.Seconds})
	}
	parts = append(parts, part{Name: "export_s", Seconds: lastOf(t.samples["export"])})
	tracedTotal := t.rec.get(tracedRoot).seconds()
	t.res.ProveWaterfall = newWaterfall(tracedTotal, parts...)
	m["trace_overhead"] = tracedTotal/median(untraced) - 1
	for _, row := range plan.CompareEstimate(report) {
		name := "cost_rel_err_" + row.Stage
		if row.Stage == "total" {
			name = "cost_rel_err"
		}
		m[name] = row.RelErr
	}

	for v := 0; v < verifyReps; v++ {
		const req = "verify"
		root := t.rec.begin(0, req, "verify")
		var p *zkml.Proof
		err := t.timed(root, req, "import", func() (err error) {
			p, err = sys.ImportProof(data)
			return err
		})
		if err == nil {
			err = t.timed(root, req, "plonkish_verify", func() error {
				return plonkish.Verify(keys.VK, p.Instance, p.Proof)
			})
		}
		t.rec.end(root)
		t.checks.op(err, "verify of the traced proof")
	}
	t.checks.op(rejectsFlipped(sys, data), "proof with one byte flipped")
	return nil
}

func lastOf(v []float64) float64 { return v[len(v)-1] }

// storeProbes times the artifact store: Save, LoadSystem and LoadVerifier,
// and the encode/decode under them. Save needs a system that knows the
// options it was compiled with, which only zkml.Compile produces, so the
// model is compiled a second time, untimed. The load is also watched for
// MSMs: a restart from the store must do none.
func (t *tracer) storeProbes(scratch string) error {
	sample, opts := t.spec.Input(goldenSeed), t.w.options()
	sys, err := zkml.Compile(t.graph, sample, opts)
	if err != nil {
		return fmt.Errorf("compile %s for the store probes: %w", t.w.Model, err)
	}
	store, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return err
	}
	const req = "store"
	if err := t.timed(0, req, "store_save", func() error { _, err := sys.Save(store); return err }); err != nil {
		return err
	}
	var counters obs.KernelCounters
	prevCurve, prevPoly := curve.SetKernelTrace(&counters), poly.SetKernelTrace(&counters)
	workBefore := pcs.SetupWorkSnapshot()
	err = t.timed(0, req, "store_load", func() error { _, err := zkml.LoadSystem(store, t.graph, sample, opts); return err })
	work := pcs.SetupWorkSnapshot().Sub(workBefore)
	curve.SetKernelTrace(prevCurve)
	poly.SetKernelTrace(prevPoly)
	if err != nil {
		return err
	}
	var loadMSMs int64
	for i := range counters.MSM {
		loadMSMs += counters.MSM[i].Load()
	}
	t.checks.op(failIf(loadMSMs != 0 || !work.IsZero(), "%d MSMs, set-up work %+v", loadMSMs, work), "load from the store did set-up work")
	err = t.timed(0, req, "store_load_verifier", func() error { _, err := zkml.LoadVerifier(store, t.graph, sample, opts); return err })
	if err != nil {
		return err
	}
	var encoded []byte
	err = t.timed(0, req, "artifact_encode", func() (err error) {
		encoded, err = core.EncodeArtifact(core.ArtifactMeta{}, sys.Plan, sys.Keys)
		return err
	})
	if err != nil {
		return err
	}
	if err := t.timed(0, req, "artifact_decode", func() error { _, err := core.DecodeArtifact(encoded); return err }); err != nil {
		return err
	}
	m := t.res.Metrics
	for _, name := range []string{"store_save", "store_load", "store_load_verifier", "artifact_encode", "artifact_decode"} {
		m[name+"_s"] = t.samples[name][0]
	}
	m["store_load_msms"] = float64(loadMSMs)
	return nil
}

// kernelProbes times the kernels under the prover at this workload's sizes.
func (t *tracer) kernelProbes(sys *zkml.System, budget time.Duration) error {
	k := sys.Plan.K
	extK := k
	for 1<<uint(extK) < sys.Keys.PK.ExtDomain.N {
		extK++
	}
	add := func(probes map[string]summary) {
		for name, s := range probes {
			t.res.Probes[name] = s
		}
	}
	add(ffProbes(budget))
	add(polyProbes(k, extK, budget))
	cp, err := curveProbes(k, budget)
	if err != nil {
		return err
	}
	add(cp)
	pp, err := pcsProbes(t.w.Backend, k, budget)
	if err != nil {
		return err
	}
	add(pp)
	return nil
}

// setupWorkCount adds up the set-up work in a snapshot: SRS growth and table
// builds, not table hits, which are the warm path.
func setupWorkCount(w pcs.SetupWork) int64 {
	return w.KZGPowersExtended + w.KZGCombBuilds + w.IPAPointsDerived + w.CommitTableBuilds
}

// daemonRun repeats set-up and one traced request against a real zkmld
// restarted over a store, and replaces the in-process waterfalls with the
// daemon's: what a user of the serve workload waits for.
func (t *tracer) daemonRun(seed int64, scratch string) error {
	f, err := buildServeFixture(t.w, scratch)
	if err != nil {
		return err
	}
	const req = "daemon-setup"
	root := t.rec.begin(0, req, "daemon_setup")
	startSpan := t.rec.begin(root, req, "daemon_start")
	d, err := startDaemon(t.w, f)
	if err != nil {
		return err
	}
	defer d.stop()
	startS := t.rec.end(startSpan)
	var stats statsReply
	if err := d.get("/stats", &stats); err != nil {
		return err
	}
	var models struct {
		Models []struct {
			Name    string  `json:"name"`
			LoadSec float64 `json:"load_s"`
		} `json:"models"`
	}
	if err := d.get("/models", &models); err != nil {
		return err
	}
	var loadS float64
	for _, mi := range models.Models {
		if mi.Name == t.w.Model {
			loadS = mi.LoadSec
		}
	}
	firstSpan := t.rec.begin(root, req, "first_prove")
	_, _, _, err = d.prove(t.w.Model, goldenSeed, false)
	firstS := t.rec.end(firstSpan)
	total := t.rec.end(root)
	if !t.checks.op(err, "first POST /prove") {
		return fmt.Errorf("first POST /prove: %w", err)
	}
	preloadWork := setupWorkCount(stats.SetupWork)
	t.checks.op(failIf(preloadWork != 0, "set-up work %+v", stats.SetupWork), "daemon restart from the store did set-up work")

	// One traced request: the daemon reports its own prove time and the
	// prover's stage report, the client measures the round trip.
	s := seed + untracedProves + 1
	reqName := fmt.Sprintf("http-prove-%d", s)
	httpRoot := t.rec.begin(0, reqName, "http_prove")
	reply, _, latency, err := d.prove(t.w.Model, s, true)
	t.rec.end(httpRoot)
	if !t.checks.op(err, "traced POST /prove") {
		return fmt.Errorf("traced POST /prove: %w", err)
	}
	if reply.Trace == nil {
		return fmt.Errorf("benchmark: zkmld returned no trace for a traced request")
	}
	t.checks.op(checkAgainstFloat(t.graph, t.spec.Input(s), reply.Outputs, t.w.Tolerance), "FP32 cross-check of seed %d", s)
	serveWork := setupWorkCount(reply.SetupWork)
	if err := d.get("/stats", &stats); err != nil {
		return err
	}

	m := t.res.Metrics
	m["daemon_start_s"], m["daemon_load_s"], m["first_prove_s"] = startS, loadS, firstS
	m["preload_setup_work"], m["serve_setup_work"] = float64(preloadWork), float64(serveWork)
	m["http_overhead_s"] = latency - reply.ProveSecs
	m["rejected_429"], m["timeouts_504"] = float64(stats.Requests["rejected"]), float64(stats.Requests["timeouts"])
	t.res.SetupWaterfall = newWaterfall(total,
		part{Name: "daemon_start_s - daemon_load_s", Seconds: startS - loadS},
		part{Name: "daemon_load_s", Seconds: loadS},
		part{Name: "first_prove_s", Seconds: firstS})
	// The daemon's prove_s covers synthesis plus the prover; the prover's
	// report splits the prover; synthesis is the in-process measurement.
	parts := []part{{Name: "synthesize_s", Seconds: median(t.samples["synthesize"])}}
	at := t.rec.get(httpRoot).Start + parts[0].Seconds
	for _, st := range reply.Trace.Stages {
		m["stage_"+st.Stage+"_s"] = st.Seconds
		parts = append(parts, part{Name: "stage_" + st.Stage + "_s", Seconds: st.Seconds})
		t.rec.add(httpRoot, reqName, "stage_"+st.Stage, at, st.Seconds)
		at += st.Seconds
	}
	parts = append(parts, part{Name: "http_overhead_s", Seconds: m["http_overhead_s"]})
	t.res.ProveWaterfall = newWaterfall(latency, parts...)
	return nil
}

// printTrace prints one workload's two waterfalls and its per-layer metrics.
func printTrace(tr *traceResult) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, wf := range []struct {
		title string
		w     waterfall
	}{{"prove waterfall", tr.ProveWaterfall}, {"set-up waterfall", tr.SetupWaterfall}} {
		fmt.Fprintf(tw, "%s\t%s\tseconds\tshare\n", tr.Workload, wf.title)
		for _, p := range wf.w.Parts {
			fmt.Fprintf(tw, "\t%s\t%.4f\t%.1f%%\n", p.Name, p.Seconds, 100*p.Share)
		}
		fmt.Fprintf(tw, "\tunattributed_s\t%.4f\t%.1f%%\n", wf.w.Unattributed, 100*wf.w.UnattributedShare)
		fmt.Fprintf(tw, "\ttotal\t%.4f\t\n", wf.w.Total)
	}
	fmt.Fprintf(tw, "%s\tlayer\tmetric\tvalue\tunit\tq1\tq3\tn\n", tr.Workload)
	for _, m := range perLayer {
		if p, ok := tr.Probes[m.Name]; ok {
			fmt.Fprintf(tw, "\t%s\t%s\t%.6g\t%s\t%.6g\t%.6g\t%d\n", m.Layer, m.Name, p.Median, m.Unit, p.Q1, p.Q3, p.N)
		} else {
			fmt.Fprintf(tw, "\t%s\t%s\t%.6g\t%s\t\t\t\n", m.Layer, m.Name, tr.Metrics[m.Name], m.Unit)
		}
	}
	tw.Flush()
}
