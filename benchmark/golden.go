package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/model"
)

// golden is the committed expectation for one workload: the plan the pinned
// optimizer must choose, the exact proof length, and the public outputs of
// the proof of Spec.Input(goldenSeed). `run -update-golden` is the only
// writer.
type golden struct {
	K          int       `json:"k"`
	AdviceCols int       `json:"advice_cols"`
	ProofBytes int       `json:"proof_bytes"`
	Outputs    []float64 `json:"outputs"`
}

// goldenSeed is the input every process proves first (its warm-up), so the
// outputs check runs once per trial whatever --seed the timed inputs use.
const goldenSeed = 1

// moduleRoot walks up from the working directory to the directory holding
// go.mod; the harness builds zkmld and keeps its scratch files there.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no go.mod above the working directory; run from inside the repository")
		}
		dir = parent
	}
}

func goldenPath(dir, workload string) string {
	return filepath.Join(dir, workload+".json")
}

func readGolden(dir, workload string) (*golden, error) {
	data, err := os.ReadFile(goldenPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("benchmark: no golden file for %s (generate with `run -update-golden`): %w", workload, err)
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("benchmark: parsing %s: %w", goldenPath(dir, workload), err)
	}
	return &g, nil
}

func writeGolden(dir, workload string, g *golden) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSON(goldenPath(dir, workload), g)
}

// check returns an error naming how an observation departs from the golden.
// Outputs are dequantized fixed-point values, so they repeat exactly. A nil
// golden (the -update-golden run that is about to write one) accepts all.
func (g *golden) check(got *golden) error {
	if g == nil {
		return nil
	}
	var diffs []string
	if got.K != g.K {
		diffs = append(diffs, fmt.Sprintf("k = %d, golden %d", got.K, g.K))
	}
	if got.AdviceCols != g.AdviceCols {
		diffs = append(diffs, fmt.Sprintf("advice_cols = %d, golden %d", got.AdviceCols, g.AdviceCols))
	}
	if got.ProofBytes != g.ProofBytes {
		diffs = append(diffs, fmt.Sprintf("proof_bytes = %d, golden %d", got.ProofBytes, g.ProofBytes))
	}
	if len(got.Outputs) != len(g.Outputs) {
		diffs = append(diffs, fmt.Sprintf("%d outputs, golden %d", len(got.Outputs), len(g.Outputs)))
	} else {
		for i := range g.Outputs {
			if got.Outputs[i] != g.Outputs[i] {
				diffs = append(diffs, fmt.Sprintf("output[%d] = %v, golden %v", i, got.Outputs[i], g.Outputs[i]))
				break
			}
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	return errors.New(strings.Join(diffs, "; "))
}

// checkAgainstFloat compares a proof's public outputs with the FP32
// interpreter's, which shares no code with the circuit path: their mean
// absolute difference must stay within the workload's tolerance.
func checkAgainstFloat(g *model.Graph, in *model.Input, outputs []float64, tolerance float64) error {
	ref, err := g.OutputsFloat(in)
	if err != nil {
		return err
	}
	var want []float64
	for _, t := range ref {
		want = append(want, t.Data...)
	}
	if len(want) == 0 || len(outputs) < len(want) {
		return fmt.Errorf("proof carries %d outputs, FP32 reference has %d", len(outputs), len(want))
	}
	var sum float64
	for i, w := range want {
		sum += math.Abs(outputs[i] - w)
	}
	if mean := sum / float64(len(want)); mean > tolerance {
		return fmt.Errorf("outputs are off the FP32 reference by %.4f on average, tolerance %.2f", mean, tolerance)
	}
	return nil
}
