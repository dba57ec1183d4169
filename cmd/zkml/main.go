// Command zkml is the ZKML-Go command-line interface: optimize a model's
// circuit layout, generate keys, prove an inference, and verify the proof.
//
// Usage:
//
//	zkml models                               list bundled models
//	zkml export -model mnist -out m.json      write a model spec to JSON
//	zkml optimize -model mnist [-backend ipa] show the optimizer's plan
//	zkml keygen -model mnist -out keys/       compile once and persist keys + SRS
//	zkml prove -model mnist [-seed 7]         compile, prove, verify one inference
//	zkml prove -model mnist -keys keys/       same, loading (or filling) the key store
//	zkml prove -model mnist -trace t.json     same, with a per-stage trace report
//	zkml verify -model mnist -in proof.bin    verify a serialized proof (recompiles)
//	zkml verify -keys keys/ -in proof.bin     verify against the stored VK — no keygen
//	zkml <optimize|keygen|prove|verify|audit> -shards 3 ...
//	                                          the same over a chain of 3 chunk circuits
//	                                          proved in parallel; the key store holds
//	                                          one .zka per chunk (-shards 1 is the default)
//	zkml trace-check -in t.json               validate a trace report (CI smoke check)
//	zkml trace-check -in t.json -max-rel-err 0.5   ... and gate on cost-model accuracy
//	zkml audit -model mnist                   static soundness audit of the compiled circuit
//	zkml audit -all -backend both -out a.json audit every bundled model, write the findings report
//	zkml calibrate [-out calib.json]          fit per-stage cost constants from traced proves
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fsio"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/zkml"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "models":
		err = cmdModels()
	case "export":
		err = cmdExport(args)
	case "optimize":
		err = cmdOptimize(args)
	case "keygen":
		err = cmdKeygen(args)
	case "prove":
		err = cmdProve(args)
	case "verify":
		err = cmdVerify(args)
	case "trace-check":
		err = cmdTraceCheck(args)
	case "audit":
		err = cmdAudit(args)
	case "calibrate":
		err = cmdCalibrate(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zkml:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: zkml <models|export|optimize|keygen|prove|verify|trace-check|audit|calibrate> [flags]`)
}

func commonFlags(fs *flag.FlagSet) (modelName *string, backend *string, scaleBits, lookupBits, maxCols *int, seed *int64, shards *int) {
	modelName = fs.String("model", "mnist", "bundled model name (see `zkml models`)")
	backend = fs.String("backend", "kzg", "commitment backend: kzg or ipa")
	scaleBits = fs.Int("scale-bits", 6, "fixed-point scale bits")
	lookupBits = fs.Int("lookup-bits", 10, "lookup table precision bits")
	maxCols = fs.Int("max-cols", 24, "maximum advice columns to search")
	seed = fs.Int64("seed", 1, "synthetic input seed")
	shards = fs.Int("shards", 1, "split the model into a chain of N chunk circuits proved in parallel (1: one circuit)")
	fs.Func("parallelism", "proving worker count (default: GOMAXPROCS)", func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return fmt.Errorf("parallelism must be a positive integer, got %q", v)
		}
		zkml.SetParallelism(n)
		return nil
	})
	return
}

func optionsFrom(backend string, scaleBits, lookupBits, maxCols int) (zkml.Options, error) {
	o := zkml.Options{ScaleBits: scaleBits, LookupBits: lookupBits, MaxCols: maxCols,
		CalibrationPath: os.Getenv("ZKML_CALIBRATION")}
	switch backend {
	case "kzg":
		o.Backend = zkml.KZG
	case "ipa":
		o.Backend = zkml.IPA
	default:
		return o, fmt.Errorf("unknown backend %q", backend)
	}
	return o, nil
}

func cmdModels() error {
	fmt.Println("bundled evaluation models (Table 5 of the paper):")
	for _, name := range zkml.ModelNames() {
		spec, _ := zkml.Model(name)
		g := spec.Build()
		fl, err := g.Flops(spec.Input(1))
		if err != nil {
			return err
		}
		fmt.Printf("  %-18s %8d params %10d flops  (stands in for %s)\n",
			name, g.Params(), fl, spec.Paper)
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	name := fs.String("model", "mnist", "model to export")
	out := fs.String("out", "", "output JSON path (default <model>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := zkml.Model(*name)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = *name + ".json"
	}
	if err := spec.Build().Save(path); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	name, backend, sb, lb, mc, seed, shards := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := zkml.Model(*name)
	if err != nil {
		return err
	}
	o, err := optionsFrom(*backend, *sb, *lb, *mc)
	if err != nil {
		return err
	}
	chunks, err := zkml.OptimizeSharded(spec.Build(), spec.Input(*seed), *shards, o)
	if err != nil {
		return err
	}
	for c, ch := range chunks {
		if len(chunks) > 1 {
			fmt.Printf("chunk %d of %d (%d nodes):\n", c, len(chunks), len(ch.Plan.Graph.Nodes))
		}
		plan := ch.Plan
		fmt.Printf("optimizer: %d candidates evaluated, %d pruned, %v\n",
			ch.Stats.Evaluated, ch.Stats.Pruned, ch.Stats.Duration.Round(time.Millisecond))
		s := plan.Layout
		fmt.Printf("chosen: %d cols, 2^%d rows (%d used), dot=%s constdot=%v, est %.2fs, proof %d B\n",
			plan.Config.NumCols, plan.K, plan.UsedRows, plan.Config.Dot, plan.Config.UseConstDot,
			plan.Cost, s.ProofBytes)
		fmt.Printf("shape: d_max %d, %d coset parts, %d queried columns, %d openings; %d constraints, quotient program %d ops, %d row-varying\n",
			s.DMax, s.ExtN/s.N, s.QueriedCols, s.Opens, s.NumConstraints, s.Ops, s.VaryingOps)
		fmt.Println("candidates:")
		for _, c := range ch.Candidates {
			fmt.Printf("  cols=%-3d rows=2^%-2d dot=%-5s constdot=%-5v est=%8.3fs size=%6dB\n",
				c.Config.NumCols, c.K, c.Config.Dot, c.Config.UseConstDot, c.Cost, c.Layout.ProofBytes)
		}
	}
	return nil
}

// cmdKeygen compiles a model once and persists the full artifact — plan,
// proving-key material, verifying key, and SRS — so later proves and
// verifies load it instead of re-running the optimizer and keygen.
func cmdKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	name, backend, sb, lb, mc, _, shards := commonFlags(fs)
	out := fs.String("out", "zkml-keys", "key store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := zkml.Model(*name)
	if err != nil {
		return err
	}
	o, err := optionsFrom(*backend, *sb, *lb, *mc)
	if err != nil {
		return err
	}
	start := time.Now()
	sys, err := zkml.CompileSharded(spec.Build(), spec.Input(1), *shards, o)
	if err != nil {
		return err
	}
	fmt.Printf("compiled in %v: %s\n", time.Since(start).Round(time.Millisecond), sys.Describe())
	paths, err := sys.Save(*out)
	if err != nil {
		return err
	}
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, st.Size())
	}
	fmt.Printf("reuse with: zkml prove %s -keys %s\n", flagLine(*name, *backend, *sb, *lb, *mc, *shards), *out)
	return nil
}

// flagLine spells out the flags that select a compiled system, for the
// "reuse with" / "check with" hints.
func flagLine(name, backend string, sb, lb, mc, shards int) string {
	s := fmt.Sprintf("-model %s -backend %s -scale-bits %d -lookup-bits %d -max-cols %d", name, backend, sb, lb, mc)
	if shards > 1 {
		s += fmt.Sprintf(" -shards %d", shards)
	}
	return s
}

func cmdProve(args []string) error {
	fs := flag.NewFlagSet("prove", flag.ExitOnError)
	name, backend, sb, lb, mc, seed, shards := commonFlags(fs)
	out := fs.String("out", "", "write the serialized proof to this file")
	tracePath := fs.String("trace", "", "write a per-stage trace report (JSON) to this file")
	keysDir := fs.String("keys", "", "key store directory (from `zkml keygen`); filled on first use")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := zkml.Model(*name)
	if err != nil {
		return err
	}
	o, err := optionsFrom(*backend, *sb, *lb, *mc)
	if err != nil {
		return err
	}
	start := time.Now()
	sys, _, err := zkml.LoadOrCompile(*keysDir, spec.Build(), spec.Input(1), *shards, o)
	if err != nil {
		return err
	}
	fmt.Printf("ready in %v: %s\n", time.Since(start).Round(time.Millisecond), sys.Describe())

	start = time.Now()
	var proof *zkml.ShardedProof
	if *tracePath != "" {
		var rep *obs.Report
		proof, rep, err = sys.ProveTraced(spec.Input(*seed))
		if err != nil {
			return err
		}
		if err := writeTrace(*tracePath, *name, *backend, sys.Chunks[0].CompareEstimate(rep), rep); err != nil {
			return err
		}
	} else {
		proof, err = sys.Prove(spec.Input(*seed))
		if err != nil {
			return err
		}
	}
	fmt.Printf("proved in %v, proof %d bytes\n", time.Since(start).Round(time.Millisecond), proof.Size())

	start = time.Now()
	if err := sys.Verify(proof); err != nil {
		return err
	}
	fmt.Printf("verified in %v\n", time.Since(start).Round(time.Microsecond))
	if *out != "" {
		data, err := sys.ExportProof(proof)
		if err != nil {
			return err
		}
		if err := fsio.WriteFileAtomic(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes); check with: zkml verify %s -in %s\n",
			*out, len(data), flagLine(*name, *backend, *sb, *lb, *mc, *shards), *out)
	}
	outs := sys.Outputs(proof)
	limit := len(outs)
	if limit > 16 {
		limit = 16
	}
	fmt.Printf("public outputs (%d values): %.4f\n", len(outs), outs[:limit])
	return nil
}

// traceFileSchema tags the JSON payload written by `zkml prove -trace`.
const traceFileSchema = "zkml-trace/v1"

// traceFile is the `zkml prove -trace` payload: the raw stage/kernel
// report plus the cost model's predicted-vs-measured stage breakdown.
type traceFile struct {
	Schema    string                `json:"schema"`
	Model     string                `json:"model"`
	Backend   string                `json:"backend"`
	Report    *obs.Report           `json:"report"`
	CostModel []obs.StageComparison `json:"cost_model"`
}

// writeTrace prints the stage breakdown and writes the trace report file.
func writeTrace(path, model, backend string, cmp []obs.StageComparison, rep *obs.Report) error {
	fmt.Printf("trace: %.3fs total, %d MSMs, %d FFTs, %d batch-inv flushes, %d opens (%.3fs), field kernel %s\n",
		rep.TotalSeconds, rep.MSMCount, rep.FFTCount, rep.BatchInvFlushes, rep.Opens, rep.OpenSeconds, rep.FieldKernel)
	fmt.Println("  stage        predicted  measured   rel-err")
	for _, c := range cmp {
		fmt.Printf("  %-12s %8.3fs %8.3fs  %+6.1f%%\n",
			c.Stage, c.PredictedSeconds, c.MeasuredSeconds, 100*c.RelErr)
	}
	data, err := json.MarshalIndent(traceFile{
		Schema: traceFileSchema, Model: model, Backend: backend,
		Report: rep, CostModel: cmp,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := fsio.WriteFileAtomic(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s; check with: zkml trace-check -in %s\n", path, path)
	return nil
}

// checkTrace validates raw trace-report bytes: they must parse, carry the
// expected schema, and contain every prover pipeline stage. When maxRelErr
// is positive the cost model's total-row relative error is additionally
// gated: |rel_err| must stay at or below the threshold, turning the smoke
// check into an estimator-accuracy regression gate.
func checkTrace(data []byte, maxRelErr float64) (*traceFile, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("trace report does not parse: %w", err)
	}
	if tf.Schema != traceFileSchema {
		return nil, fmt.Errorf("trace report schema %q, want %q", tf.Schema, traceFileSchema)
	}
	if err := tf.Report.Validate(); err != nil {
		return nil, fmt.Errorf("trace report invalid: %w", err)
	}
	if len(tf.CostModel) == 0 {
		return nil, fmt.Errorf("trace report has no cost-model comparison")
	}
	if maxRelErr > 0 {
		total, ok := obs.TotalRow(tf.CostModel)
		if !ok {
			return nil, fmt.Errorf("trace report cost-model comparison has no total row")
		}
		if math.Abs(total.RelErr) > maxRelErr {
			return nil, fmt.Errorf("cost-model total rel_err %+.3f exceeds -max-rel-err %.3f (predicted %.3fs, measured %.3fs)",
				total.RelErr, maxRelErr, total.PredictedSeconds, total.MeasuredSeconds)
		}
	}
	return &tf, nil
}

// cmdTraceCheck is the CI check behind `make trace-smoke`: schema
// validation plus, with -max-rel-err, the cost-model accuracy gate.
func cmdTraceCheck(args []string) error {
	fs := flag.NewFlagSet("trace-check", flag.ExitOnError)
	in := fs.String("in", "", "trace report file (from `zkml prove -trace`)")
	maxRelErr := fs.Float64("max-rel-err", 0, "fail if the cost model's total |rel_err| exceeds this (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("trace-check requires -in <trace file>")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	tf, err := checkTrace(data, *maxRelErr)
	if err != nil {
		return err
	}
	fmt.Printf("trace report OK: %s/%s, %.3fs total, %d stages, %d cost-model rows\n",
		tf.Model, tf.Backend, tf.Report.TotalSeconds, len(tf.Report.Stages), len(tf.CostModel))
	if *maxRelErr > 0 {
		total, _ := obs.TotalRow(tf.CostModel)
		fmt.Printf("cost-model gate OK: total rel_err %+.3f within ±%.3f\n", total.RelErr, *maxRelErr)
	}
	return nil
}

// verifierSystem returns a system able to verify proofs for (model, shards,
// options). With a key store it reconstructs the verifying keys straight
// from the persisted commitments — no optimizer sweep, no keygen MSMs, no
// SRS extension, and no proving key at all. Without one it falls back to a
// full deterministic recompile (weights and layout are deterministic per
// model, so the VK comes out identical — just slowly).
func verifierSystem(keysDir string, spec model.Spec, shards int, o zkml.Options) (*zkml.ShardedSystem, error) {
	if keysDir != "" {
		sys, err := zkml.LoadShardedVerifier(keysDir, spec.Build(), spec.Input(1), shards, o)
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("key store has no artifact for this model/shards/options; run `zkml keygen` first: %w", err)
		}
		return sys, err
	}
	return zkml.CompileSharded(spec.Build(), spec.Input(1), shards, o)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	name, backend, sb, lb, mc, _, shards := commonFlags(fs)
	in := fs.String("in", "", "serialized proof file (from `zkml prove -out`)")
	keysDir := fs.String("keys", "", "key store directory (from `zkml keygen`); skips the recompile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("verify requires -in <proof file>")
	}
	spec, err := zkml.Model(*name)
	if err != nil {
		return err
	}
	o, err := optionsFrom(*backend, *sb, *lb, *mc)
	if err != nil {
		return err
	}
	sys, err := verifierSystem(*keysDir, spec, *shards, o)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	proof, err := sys.ImportProof(data)
	if err != nil {
		if errors.Is(err, zkml.ErrMalformedProof) {
			return fmt.Errorf("proof MALFORMED: %w", err)
		}
		return err
	}
	start := time.Now()
	if err := sys.Verify(proof); err != nil {
		if errors.Is(err, zkml.ErrMalformedProof) {
			return fmt.Errorf("proof MALFORMED: %w", err)
		}
		return fmt.Errorf("proof INVALID: %w", err)
	}
	fmt.Printf("proof valid (verified in %v); outputs: %.4f\n",
		time.Since(start).Round(time.Microsecond), sys.Outputs(proof))
	return nil
}

// auditFileSchema tags the JSON payload written by `zkml audit -out`.
const auditFileSchema = "zkml-audit/v1"

// auditFile is the machine-readable findings report: one audit.Report per
// (model, backend) pair audited.
type auditFile struct {
	Schema  string              `json:"schema"`
	Reports []*zkml.AuditReport `json:"reports"`
}

// cmdAudit statically audits compiled circuits for soundness and liveness
// defects before any keys exist: the optimizer picks the layout (priced with
// the deterministic static calibration — no benchmark runs), the circuit is
// synthesized, and the auditor scans it. Exits nonzero on any error-severity
// finding, which is what `make audit-smoke` gates CI on.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	name, backend, sb, lb, mc, seed, shards := commonFlags(fs)
	all := fs.Bool("all", false, "audit every bundled model")
	out := fs.String("out", "", "write the JSON findings report to this file")
	emitJSON := fs.Bool("json", false, "print the JSON findings report to stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	models := []string{*name}
	if *all {
		models = zkml.ModelNames()
	}
	backends := []string{*backend}
	if *backend == "both" {
		backends = []string{"kzg", "ipa"}
	}

	af := auditFile{Schema: auditFileSchema}
	errors := 0
	for _, m := range models {
		spec, err := zkml.Model(m)
		if err != nil {
			return err
		}
		for _, bk := range backends {
			o, err := optionsFrom(bk, *sb, *lb, *mc)
			if err != nil {
				return err
			}
			// Layout selection only ranks candidates here — nothing is
			// proved — so the deterministic shape-derived calibration
			// keeps the audit instant and machine-independent.
			o.Calibration = costmodel.StaticCalibration()
			reps, err := zkml.AuditSharded(spec.Build(), spec.Input(*seed), *shards, o)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", m, bk, err)
			}
			for _, rep := range reps {
				af.Reports = append(af.Reports, rep)
				errors += rep.Errors()
				fmt.Println(rep.Summary())
				printAuditFindings(rep)
			}
		}
	}
	if *out != "" || *emitJSON {
		data, err := json.MarshalIndent(af, "", " ")
		if err != nil {
			return err
		}
		if *emitJSON {
			fmt.Println(string(data))
		}
		if *out != "" {
			if err := fsio.WriteFileAtomic(*out, data, 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", *out)
		}
	}
	if errors > 0 {
		return fmt.Errorf("audit found %d error-severity finding(s) across %d report(s)", errors, len(af.Reports))
	}
	fmt.Printf("audit clean: %d report(s), 0 errors\n", len(af.Reports))
	return nil
}

// printAuditFindings prints one report's findings (and truncation notes).
func printAuditFindings(rep *zkml.AuditReport) {
	for _, f := range rep.Findings {
		loc := ""
		if f.Col != "" {
			loc = " " + f.Col
			if f.Row >= 0 {
				loc = fmt.Sprintf("%s@%d", loc, f.Row)
			}
		}
		if f.Name != "" {
			loc += " (" + f.Name + ")"
		}
		fmt.Printf("  [%s] %s%s: %s\n", f.Severity, f.Code, loc, f.Message)
	}
	for code, n := range rep.Truncated {
		fmt.Printf("  ... %d further %s findings truncated\n", n, code)
	}
}

// cmdCalibrate fits the cost model to this machine: it proves a small
// traced sweep of mnist layouts on both backends and regresses each stage's
// measured time on its static price and its column-rows (core.FitCalibration).
func cmdCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	out := fs.String("out", "zkml-calibration.json", "output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := costmodel.StaticCalibration()
	c.Hardware = "local"
	cfg := core.DefaultFitConfig()
	fmt.Printf("fitting per-stage constants from a traced %s sweep (this proves real circuits)...\n", cfg.Model)
	cfg.Log = func(format string, a ...any) { fmt.Printf("  "+format+"\n", a...) }
	n, err := core.FitCalibration(c, cfg)
	if err != nil {
		return fmt.Errorf("calibration fit: %w", err)
	}
	fmt.Printf("fitted %d stage corrections from %d traced proves:\n", len(c.Fits), n)
	keys := make([]string, 0, len(c.Fits))
	for key := range c.Fits {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		f := c.Fits[key]
		fmt.Printf("  %-16s gain %6.2fx  per-row %8.2f ns\n", key, f.Gain, f.PerRow*1e9)
	}
	if err := c.Save(*out); err != nil {
		return err
	}
	fmt.Println("wrote", *out, "- set ZKML_CALIBRATION to reuse it")
	return nil
}
