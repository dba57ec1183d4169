// Package experiments regenerates every table of the paper's evaluation
// (§9) on this machine: end-to-end proving/verification for all eight
// models under both backends (Tables 6/7), quantization accuracy (Table 8),
// the prior-work-style baseline comparison (Table 9), the optimizer
// ablations (Tables 10/11/12 and §9.4), single- vs multi-row gadgets
// (Table 13), the runtime-vs-size objectives (Table 14), and the
// cost-model rank accuracy study (§9.5).
//
// Absolute numbers differ from the paper (micro-scaled models on one CPU
// core vs 32-128 vCPU AWS instances); the comparisons within each table —
// who wins, and by roughly what factor — are the reproduction target.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

// Config scales the experiments.
type Config struct {
	FP      fixedpoint.Params
	MinCols int
	MaxCols int
	// Models restricts experiments to a subset (nil = all).
	Models []string
	// AccuracySamples is the synthetic test-set size for Table 8.
	AccuracySamples int
	Seed            int64
}

// Default returns the configuration used for the recorded results.
func Default() Config {
	return Config{
		FP:              fixedpoint.Params{ScaleBits: 6, LookupBits: 10},
		MinCols:         6,
		MaxCols:         24,
		AccuracySamples: 32,
		Seed:            1,
	}
}

// Quick returns a reduced configuration for tests.
func Quick() Config {
	c := Default()
	c.MaxCols = 16
	c.AccuracySamples = 8
	c.Models = []string{"mnist", "dlrm-micro"}
	return c
}

func (c *Config) modelList() []model.Spec {
	if c.Models == nil {
		return model.Registry
	}
	var out []model.Spec
	for _, name := range c.Models {
		s, err := model.Get(name)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

func (c *Config) options(backend pcs.Backend) core.Options {
	opt := core.DefaultOptions(backend, c.FP)
	opt.MinCols, opt.MaxCols = c.MinCols, c.MaxCols
	opt.Calibration = costmodel.StaticCalibration()
	return opt
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// proveOnce runs optimize+setup+prove+verify for a model under a backend
// and reports the measured quantities.
type runResult struct {
	Plan      *core.Plan
	ProveTime time.Duration
	VerifyT   time.Duration
	ProofSize int
	SetupTime time.Duration
	OptTime   time.Duration
}

func (c *Config) run(spec model.Spec, backend pcs.Backend, objective core.Objective) (*runResult, error) {
	g := spec.Build()
	in := spec.Input(c.Seed)
	opt := c.options(backend)
	opt.Objective = objective
	plan, _, stats, err := core.Optimize(g, in, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return c.runPlan(plan, spec, stats.Duration)
}

func (c *Config) runPlan(plan *core.Plan, spec model.Spec, optTime time.Duration) (*runResult, error) {
	start := time.Now()
	keys, err := plan.Setup()
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", spec.Name, err)
	}
	setupT := time.Since(start)

	art, err := plan.Synthesize(spec.Input(c.Seed + 1))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	proof, err := plonkish.Prove(keys.PK, art.Instance, art.Witness)
	if err != nil {
		return nil, fmt.Errorf("%s prove: %w", spec.Name, err)
	}
	proveT := time.Since(start)
	start = time.Now()
	if err := plonkish.Verify(keys.VK, art.Instance, proof); err != nil {
		return nil, fmt.Errorf("%s verify: %w", spec.Name, err)
	}
	verifyT := time.Since(start)
	return &runResult{
		Plan: plan, ProveTime: proveT, VerifyT: verifyT,
		ProofSize: proof.Size(), SetupTime: setupT, OptTime: optTime,
	}, nil
}

// runFixed measures proving under an explicit (non-optimized) plan.
func (c *Config) runFixed(spec model.Spec, plan *core.Plan) (*runResult, error) {
	return c.runPlan(plan, spec, 0)
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2f s", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2f ms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%d µs", d.Microseconds())
	}
}
