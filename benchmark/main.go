// Command benchmark is this repository's one benchmark: four named
// workloads, five end-to-end metrics with fixed regression bounds, and a
// separate traced run that attributes a prove to the layers under it. See
// README.md in this directory; BENCHMARK.json at the repository root names
// the command, the workloads and the metrics.
//
// Usage, from the repository root:
//
//	go run ./benchmark run     [-seed S] [-seconds N] [-out R.json]   every workload, end to end
//	go run ./benchmark trace   [-seed S] [-seconds N] [-out T.json]   traced runs + BENCH_9 sweep
//	go run ./benchmark compare OLD.json NEW.json                      verdict per workload and metric
//	go run ./benchmark agree   A.json B.json                          two sets of one commit
//	go run ./benchmark measure --workload W --seed S --seconds N --trace 0|1
//	                                                                  one workload, one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/fsio"
)

// defaultSeconds is how long one run of one workload measures; BENCHMARK.json
// passes the same number as run_seconds.
const defaultSeconds = 10

const traceSchema = "zkml-benchmark-trace/v1"

// traceFile is what `trace -out` writes.
type traceFile struct {
	Schema     string         `json:"schema"`
	Conditions conditions     `json:"conditions"`
	Workloads  []*traceResult `json:"workloads"`
	// Sweep is the BENCH_9 anomaly sweep, in a process of its own.
	Sweep []sweepRow `json:"sweep"`
	Claim *string    `json:"claim"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "trace":
		err = cmdTrace(args)
	case "compare":
		err = cmdCompare(args, false)
	case "agree":
		err = cmdCompare(args, true)
	case "measure":
		err = cmdMeasure(args)
	case "trial":
		err = childTrial(args)
	case "traced":
		err = childTraced(args)
	case "sweep":
		err = childSweep(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: go run ./benchmark <command>
  run     [-seed S] [-seconds N] [-workload W] [-out R.json] [-update-golden]
  trace   [-seed S] [-seconds N] [-workload W] [-out T.json]
  compare OLD.json NEW.json
  agree   A.json B.json
  measure --workload W --seed S --seconds N --trace 0|1`)
}

// scratchDir makes a directory for fixtures under .bench_build in the
// repository, so the harness writes nothing outside its checkout. The caller
// removes it.
func scratchDir() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func goldenDir() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	return filepath.Join(root, "benchmark", "expected"), nil
}

// selected resolves the -workload flag: one workload, or all when empty.
func selected(name string) ([]workload, error) {
	if name == "" {
		return workloads, nil
	}
	w, err := findWorkload(name)
	return []workload{w}, err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return fsio.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed; timed inputs are Spec.Input(seed+i)")
	seconds := fs.Int("seconds", defaultSeconds, "seconds each workload measures, set-up not included")
	only := fs.String("workload", "", "run one workload instead of all")
	out := fs.String("out", "", "write the result file here")
	update := fs.Bool("update-golden", false, "rewrite benchmark/expected/ from this run instead of checking against it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := selected(*only)
	if err != nil {
		return err
	}
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	expected, err := goldenDir()
	if err != nil {
		return err
	}
	rf := &resultFile{Schema: resultSchema, Conditions: currentConditions(*seed, *seconds)}
	for _, w := range ws {
		res, err := runWorkload(w, runConfig{Seed: *seed, Seconds: *seconds, GoldenDir: expected,
			UpdateGolden: *update, Rerun: true, Scratch: scratch})
		if err != nil {
			return err
		}
		rf.Workloads = append(rf.Workloads, res)
	}
	printTable(os.Stdout, rf.Workloads)
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			return err
		}
	}
	for _, r := range rf.Workloads {
		if r.FailedOps > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", r.Name, r.FailedOps, r.Ops)
		}
	}
	return nil
}

// runTraced starts the traced run of one workload in a fresh process.
func runTraced(w workload, seed int64, seconds int, scratch string) (*traceResult, error) {
	var tr traceResult
	err := runChild(&tr, "traced", "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-scratch", scratch)
	return &tr, err
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "budget the kernel probes are sized from")
	only := fs.String("workload", "", "trace one workload instead of all (and skip the sweep)")
	out := fs.String("out", "", "write the trace file here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ws, err := selected(*only)
	if err != nil {
		return err
	}
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	tf := &traceFile{Schema: traceSchema, Conditions: currentConditions(*seed, *seconds)}
	for _, w := range ws {
		tr, err := runTraced(w, *seed, *seconds, scratch)
		if err != nil {
			return err
		}
		tf.Workloads = append(tf.Workloads, tr)
		printTrace(tr)
	}
	if *only == "" {
		if err := runChild(&tf.Sweep, "sweep", "-seconds", strconv.Itoa(*seconds)); err != nil {
			return err
		}
		printSweep(tf.Sweep)
	}
	if *out != "" {
		if err := writeJSON(*out, tf); err != nil {
			return err
		}
	}
	for _, tr := range tf.Workloads {
		if tr.FailedOps > 0 {
			return fmt.Errorf("%s: %d of %d ops failed: %v", tr.Workload, tr.FailedOps, tr.Ops, tr.Failures)
		}
	}
	return nil
}

func cmdCompare(args []string, symmetric bool) error {
	if len(args) != 2 {
		usage()
		return fmt.Errorf("compare and agree take two result files")
	}
	first, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	second, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	rows, notes, problems := compareFiles(first, second, symmetric)
	printComparison(os.Stdout, rows, notes, problems)
	if !passes(rows, problems, symmetric) {
		if symmetric {
			return fmt.Errorf("the two sets do not agree")
		}
		return fmt.Errorf("the second file is worse than the first")
	}
	return nil
}

// cmdMeasure is the form BENCHMARK.json's command takes: one workload, one
// seed, and as the last line of standard output one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
func cmdMeasure(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var line driverLine
	if *trace == 0 {
		expected, err := goldenDir()
		if err != nil {
			return err
		}
		res, err := runWorkload(w, runConfig{Seed: *seed, Seconds: *seconds, GoldenDir: expected, Scratch: scratch})
		if err != nil {
			return err
		}
		printTable(os.Stderr, []*workloadResult{res})
		line = res.driverLine()
	} else {
		tr, err := runTraced(w, *seed, *seconds, scratch)
		if err != nil {
			return err
		}
		for _, f := range tr.Failures {
			fmt.Fprintln(os.Stderr, "FAILED:", f)
		}
		line = driverLine{Correct: tr.FailedOps == 0, Attempted: tr.Ops, Failed: tr.FailedOps, Metrics: map[string]driverMetric{}}
		for _, m := range perLayer {
			line.Metrics[m.Name] = driverMetric{Value: tr.Metrics[m.Name], Unit: m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// childTrial is the hidden subcommand a trial's fresh process runs.
func childTrial(args []string) error {
	fs := flag.NewFlagSet("trial", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	budget := fs.Duration("budget", time.Second, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	res, err := inprocTrial(w, *seed, *budget)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// childTraced is the hidden subcommand a traced run's fresh process runs.
func childTraced(args []string) error {
	fs := flag.NewFlagSet("traced", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	seconds := fs.Int("seconds", defaultSeconds, "")
	scratch := fs.String("scratch", "", "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	res, err := tracedRun(w, *seed, *seconds, *scratch)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// childSweep is the hidden subcommand the BENCH_9 sweep's process runs.
func childSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	seconds := fs.Int("seconds", defaultSeconds, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pinProcess()
	rows, err := anomalySweep(time.Duration(*seconds) * time.Second / 16)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rows)
}
