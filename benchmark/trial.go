package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/pcs"
	"repro/zkml"
)

// trialResult is what one fresh process contributes to a workload: one
// set-up sample, one peak-memory sample, and the timed prove and verify
// samples, with every op counted and every failed op explained.
type trialResult struct {
	SetupS  float64   `json:"setup_s"`
	ProveS  []float64 `json:"prove_s"`
	VerifyS []float64 `json:"verify_s"`
	// PeakRSSMB is VmHWM when set-up completes; PeakRSSEndMB is VmHWM when the
	// trial ends, recorded but not a metric: after set-up it moves with
	// garbage-collector pacing, +-12% between identical trials.
	PeakRSSMB    float64  `json:"peak_rss_mb"`
	PeakRSSEndMB float64  `json:"peak_rss_end_mb"`
	ProofBytes   int      `json:"proof_bytes"`
	K            int      `json:"k"`
	AdviceCols   int      `json:"advice_cols"`
	Ops          int      `json:"ops"`
	FailedOps    int      `json:"failed_ops"`
	Failures     []string `json:"failures,omitempty"`
	// Steal is the CPU steal share over the timed phase.
	Steal float64 `json:"steal"`
	// TimedSetupWork is the pcs set-up work done during the timed phase;
	// warm proves must build no commit table.
	TimedSetupWork pcs.SetupWork `json:"timed_setup_work"`
	// Outputs are the public outputs of the golden-seed proof, kept so
	// -update-golden can write them.
	Outputs []float64 `json:"outputs,omitempty"`
}

// observed is the part of a trial the golden file pins.
func (r *trialResult) observed() *golden {
	return &golden{K: r.K, AdviceCols: r.AdviceCols, ProofBytes: r.ProofBytes, Outputs: r.Outputs}
}

// op counts one operation and, when it failed, records why.
func (r *trialResult) op(err error, format string, args ...any) bool {
	r.Ops++
	if err == nil {
		return true
	}
	r.FailedOps++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...)+": "+err.Error())
	}
	return false
}

// failIf turns a condition into the error an op records: nil unless bad.
func failIf(bad bool, format string, args ...any) error {
	if !bad {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// flipByte returns a copy of a proof with one byte in the middle inverted.
func flipByte(proof []byte) []byte {
	bad := append([]byte(nil), proof...)
	bad[len(bad)/2] ^= 0xff
	return bad
}

// verifyBytes is the user-visible verification: proof bytes to verdict.
func verifyBytes(sys *zkml.System, data []byte) error {
	p, err := sys.ImportProof(data)
	if err != nil {
		return err
	}
	return sys.Verify(p)
}

// rejectsFlipped returns an error if the verifier accepts the proof with one
// byte flipped.
func rejectsFlipped(sys *zkml.System, data []byte) error {
	return failIf(verifyBytes(sys, flipByte(data)) == nil, "verifier accepted it")
}

// noTableBuilds returns an error if warm proves built a commit table: the
// warm-up prove builds them, and a later build means the cache was lost.
func noTableBuilds(w pcs.SetupWork) error {
	return failIf(w.CommitTableBuilds != 0, "%d rebuilt", w.CommitTableBuilds)
}

// inprocTrial is one trial of an in-process workload, run in a process that
// has done nothing else: set-up (compile + the warm-up prove that builds
// the commit tables), the correctness checks on the warm-up proof, then the
// closed loop of timed proves and verifies until the budget is spent.
func inprocTrial(w workload, seed int64, budget time.Duration) (*trialResult, error) {
	pinProcess()
	spec, err := zkml.Model(w.Model)
	if err != nil {
		return nil, err
	}
	g := spec.Build()
	res := &trialResult{}

	setupStart := time.Now()
	sys, err := zkml.Compile(g, spec.Input(goldenSeed), w.options())
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", w.Model, err)
	}
	warm, err := sys.Prove(spec.Input(goldenSeed))
	if err != nil {
		return nil, fmt.Errorf("warm-up prove %s: %w", w.Model, err)
	}
	res.SetupS = time.Since(setupStart).Seconds()
	if res.PeakRSSMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}

	data, err := sys.ExportProof(warm)
	if err != nil {
		return nil, fmt.Errorf("export warm-up proof: %w", err)
	}
	res.K, res.AdviceCols, res.ProofBytes = sys.Plan.K, sys.Plan.Config.NumCols, len(data)
	res.Outputs = sys.Outputs(warm)
	res.op(checkAgainstFloat(g, spec.Input(goldenSeed), res.Outputs, w.Tolerance), "FP32 cross-check of the warm-up proof")
	res.op(verifyBytes(sys, data), "verify of the warm-up proof")
	res.op(rejectsFlipped(sys, data), "proof with one byte flipped")

	cpuBefore, workBefore := readCPUTimes(), pcs.SetupWorkSnapshot()
	timedStart := time.Now()
	for i := int64(1); ; i++ {
		in := spec.Input(seed + i)
		start := time.Now()
		proof, err := sys.Prove(in)
		if err == nil {
			data, err = sys.ExportProof(proof)
		}
		elapsed := time.Since(start).Seconds()
		if res.op(err, "prove of input %d", seed+i) {
			res.ProveS = append(res.ProveS, elapsed)
			res.op(failIf(len(data) != res.ProofBytes, "%d bytes, warm-up proof had %d", len(data), res.ProofBytes), "proof size of input %d", seed+i)
			res.op(checkAgainstFloat(g, in, sys.Outputs(proof), w.Tolerance), "FP32 cross-check of input %d", seed+i)
			for v := 0; v < w.VerifiesPerProve; v++ {
				start := time.Now()
				err := verifyBytes(sys, data)
				elapsed := time.Since(start).Seconds()
				if res.op(err, "verify of input %d", seed+i) {
					res.VerifyS = append(res.VerifyS, elapsed)
				}
			}
		}
		if time.Since(timedStart) >= budget {
			break
		}
	}
	res.Steal = stealShare(cpuBefore, readCPUTimes())
	res.TimedSetupWork = pcs.SetupWorkSnapshot().Sub(workBefore)
	res.op(noTableBuilds(res.TimedSetupWork), "commit tables during warm proves")
	if res.PeakRSSEndMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	return res, nil
}

// childEnv is the environment of every measured child process: the parent's,
// with GOMAXPROCS pinned to the worker count.
func childEnv(extra ...string) []string {
	env := append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers()))
	return append(env, extra...)
}

// runChild re-executes this binary with a hidden subcommand and decodes the
// JSON it prints. The SRS, commit tables and twiddle caches are
// process-global and only grow, so a cold set-up can be observed once per
// process: every trial and every traced run gets a process of its own.
func runChild(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchmark: child %v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("benchmark: child %v printed no result: %w", args, err)
	}
	return nil
}
