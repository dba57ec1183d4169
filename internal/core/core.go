// Package core is ZKML's optimizing compiler — the paper's primary
// contribution. It takes an ML model specification, enumerates logical
// circuit layouts (gadget implementation choices, §7.2), instantiates
// physical layouts at each column count with a row-exact circuit simulation
// (§7.3), estimates the proving cost of each with the calibrated cost model
// (§7.4), and selects the cheapest plan (Algorithm 1). A selected Plan then
// drives key generation, witness synthesis, proving, and verification.
package core

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/costmodel"
	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/gadgets"
	"repro/internal/layers"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

// Objective selects what the optimizer minimizes (§9.4's second case
// study: proving time or proof size).
type Objective string

// Objectives.
const (
	MinTime Objective = "time"
	MinSize Objective = "size"
)

// Options configures the optimizer.
type Options struct {
	Backend   pcs.Backend
	Objective Objective
	FP        fixedpoint.Params
	// MinCols / MaxCols bound the physical column search (N_min / N_max
	// in Algorithm 1).
	MinCols, MaxCols int
	// Prune enables the paper's heuristics: a single gadget
	// implementation per configuration and only the minimal column count
	// per row-power k.
	Prune bool
	// Configs overrides the logical layouts considered; nil enumerates
	// the default candidates.
	Configs []gadgets.Config
	// Calibration supplies hardware costs (required).
	Calibration *costmodel.Calibration
}

// DefaultOptions returns sensible optimizer options for a backend.
func DefaultOptions(backend pcs.Backend, fp fixedpoint.Params) Options {
	return Options{
		Backend:   backend,
		Objective: MinTime,
		FP:        fp,
		MinCols:   6,
		MaxCols:   40,
		Prune:     true,
	}
}

// BaselineConfig returns the "prior-work style" circuit configuration used
// as the zkCNN/vCNN stand-in in Table 9: bit-decomposition ReLU, arithmetic
// routed through generic dot products, no fixed-column weights.
func BaselineConfig(fp fixedpoint.Params) gadgets.Config {
	c := gadgets.DefaultConfig(fp.LookupBits+2, fp)
	c.ReLU = gadgets.ReLUDecomp
	c.Arith = gadgets.ArithViaDot
	c.UseConstDot = false
	c.Dot = gadgets.DotSum
	return c
}

// FixedGadgetConfig returns the single-implementation gadget set for the
// Table 11 ablation ("no extra" gadgets).
func FixedGadgetConfig(numCols int, fp fixedpoint.Params) gadgets.Config {
	c := gadgets.DefaultConfig(numCols, fp)
	c.Arith = gadgets.ArithViaDot
	c.UseConstDot = false
	c.Dot = gadgets.DotSum
	return c
}

// Candidate is one physical layout evaluated by the optimizer.
type Candidate struct {
	Config   gadgets.Config
	N        int
	K        int
	UsedRows int
	Layout   costmodel.Layout
	Cost     float64 // estimated proving seconds
	Size     int     // estimated proof bytes
}

// Plan is the optimizer's chosen layout bound to a model.
type Plan struct {
	Graph  *model.Graph
	Sample *model.Input
	Candidate
	Backend pcs.Backend
	// Calibration is the cost calibration the plan was priced with; it
	// drives CompareEstimate's predicted-vs-measured stage breakdown.
	Calibration *costmodel.Calibration
}

// Stats reports optimizer behaviour (Table 12).
type Stats struct {
	Evaluated int
	Pruned    int
	Duration  time.Duration
}

// Optimize runs Algorithm 1: enumerate logical layouts, simulate physical
// layouts per column count, estimate costs, and pick the best plan. The
// sample input drives the row-exact circuit simulation (layouts are
// input-independent; see model.TestTwoInputsSameCircuitShape).
func Optimize(g *model.Graph, sample *model.Input, opt Options) (*Plan, []Candidate, Stats, error) {
	start := time.Now()
	if opt.Calibration == nil {
		return nil, nil, Stats{}, fmt.Errorf("core: options require a calibration")
	}
	if opt.MinCols < 4 {
		opt.MinCols = 4
	}
	if opt.MaxCols < opt.MinCols {
		opt.MaxCols = opt.MinCols
	}
	configs := opt.Configs
	if configs == nil {
		configs = gadgets.EnumerateConfigs(0, opt.FP)
		if !opt.Prune {
			// Without pruning, also consider the redundant
			// dedicated-vs-viadot axis (the pruned search fixes one
			// implementation per layer family).
			extra := make([]gadgets.Config, 0, len(configs))
			for _, c := range configs {
				c2 := c
				c2.Arith = gadgets.ArithViaDot
				extra = append(extra, c2)
			}
			configs = append(configs, extra...)
		}
	}

	var best *Candidate
	var all []Candidate
	stats := Stats{}
	for _, tmpl := range configs {
		seenK := map[int]bool{}
		for nCols := opt.MinCols; nCols <= opt.MaxCols; nCols++ {
			cfg := tmpl
			cfg.NumCols = nCols
			if cfg.Validate() != nil {
				continue
			}
			// Row-exact simulation (GeneratePhysicalLayout +
			// FindOptimalK in Algorithm 1). Configurations the model
			// cannot fit (e.g. an embedding row wider than the column
			// budget) are skipped, not fatal.
			b, _, err := g.BuildCircuit(cfg, sample)
			if err != nil {
				continue
			}
			k := bits.TrailingZeros(uint(b.MinN()))
			if opt.Prune && seenK[k] {
				// Keep only the minimal column count per row power
				// (§7.3: "only keep the grids with a minimal number of
				// rows for each k").
				stats.Pruned++
				continue
			}
			seenK[k] = true
			cand, err := price(b, cfg, opt)
			if err != nil {
				return nil, nil, stats, err
			}
			stats.Evaluated++
			all = append(all, *cand)
			if best == nil || score(cand, opt.Objective) < score(best, opt.Objective) {
				best = cand
			}
		}
	}
	stats.Duration = time.Since(start)
	if best == nil {
		return nil, all, stats, fmt.Errorf("core: no feasible layout for %s in [%d,%d] columns", g.Name, opt.MinCols, opt.MaxCols)
	}
	plan := &Plan{Graph: g, Sample: sample, Candidate: *best, Backend: opt.Backend, Calibration: opt.Calibration}
	return plan, all, stats, nil
}

func score(c *Candidate, obj Objective) float64 {
	if obj == MinSize {
		return float64(c.Size)
	}
	return c.Cost
}

// price estimates the cost of a simulated layout (EstimateCost in
// Algorithm 1) at the minimal grid that fits.
func price(b *gadgets.Builder, cfg gadgets.Config, opt Options) (*Candidate, error) {
	return priceAt(b, cfg, b.MinN(), opt)
}

// priceAt finalizes the simulated circuit at an explicit grid height n and
// prices it there, so the layout, cost, and size all describe the same
// domain the keys and proofs will use.
func priceAt(b *gadgets.Builder, cfg gadgets.Config, n int, opt Options) (*Candidate, error) {
	k := bits.TrailingZeros(uint(n))
	art, err := b.Finalize(n)
	if err != nil {
		return nil, err
	}
	layout := LayoutOf(art.CS, k, opt.Backend)
	cand := &Candidate{
		Config:   cfg,
		N:        n,
		K:        k,
		UsedRows: art.UsedRows,
		Layout:   layout,
		Cost:     opt.Calibration.EstimateProvingTime(layout),
		Size:     layout.EstimateProofSize(),
	}
	return cand, nil
}

// PlanFor builds a plan from one explicit configuration without running the
// optimizer (used by the fixed-configuration and fixed-gadget-set ablations,
// Tables 10/11/13). The grid is the minimal power of two that fits.
func PlanFor(g *model.Graph, sample *model.Input, cfg gadgets.Config, backend pcs.Backend, calib *costmodel.Calibration) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, _, err := g.BuildCircuit(cfg, sample)
	if err != nil {
		return nil, err
	}
	opt := Options{Backend: backend, Calibration: calib}
	cand, err := price(b, cfg, opt)
	if err != nil {
		return nil, err
	}
	return &Plan{Graph: g, Sample: sample, Candidate: *cand, Backend: backend, Calibration: calib}, nil
}

// PlanAt is PlanFor with an explicit grid height n >= the minimum (used to
// pin a fixed number of rows, e.g. Table 10's fixed configuration). The
// layout, cost, and size are all re-derived at the pinned grid, so the plan
// is priced, audited, and CompareEstimate'd against the domain it actually
// proves on.
func PlanAt(g *model.Graph, sample *model.Input, cfg gadgets.Config, n int, backend pcs.Backend, calib *costmodel.Calibration) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("core: pinned row count %d is not a power of two", n)
	}
	b, _, err := g.BuildCircuit(cfg, sample)
	if err != nil {
		return nil, err
	}
	if n < b.MinN() {
		return nil, fmt.Errorf("core: %d rows below minimum %d", n, b.MinN())
	}
	opt := Options{Backend: backend, Calibration: calib}
	cand, err := priceAt(b, cfg, n, opt)
	if err != nil {
		return nil, err
	}
	return &Plan{Graph: g, Sample: sample, Candidate: *cand, Backend: backend, Calibration: calib}, nil
}

// LayoutOf summarizes a constraint system as a cost-model layout.
func LayoutOf(cs *plonkish.CS, k int, backend pcs.Backend) costmodel.Layout {
	count, ops := cs.ConstraintStats((1 << uint(k)) - plonkish.ZKRows)
	return costmodel.Layout{
		K:              k,
		NumInstance:    cs.NumInstance,
		NumAdvice:      cs.NumAdvice,
		NumFixed:       cs.NumFixed + 3, // q_active, l_0, l_u
		NumLookups:     len(cs.Lookups),
		NumPermCols:    len(cs.PermCols()),
		DMax:           cs.Degree(),
		NumConstraints: count,
		ConstraintOps:  ops,
		Backend:        backend,
	}
}

// Synthesize builds the circuit and witness for an input under this plan.
func (p *Plan) Synthesize(in *model.Input) (*gadgets.Artifact, error) {
	return p.SynthesizeLink(in, nil)
}

// SynthesizeLink is Synthesize for one link of a sharded chain: it also
// records the quantized values of every graph output into acts, keyed by
// tensor name — the boundary activations the following chunks take as their
// act inputs (model.Partitioning.ChunkInput). A nil acts records nothing.
func (p *Plan) SynthesizeLink(in *model.Input, acts map[string][]int64) (*gadgets.Artifact, error) {
	b, outs, err := p.Graph.BuildCircuit(p.Config, in)
	if err != nil {
		return nil, err
	}
	if acts != nil {
		for i, name := range p.Graph.Outputs {
			acts[name] = layers.Values(outs[i]).Data
		}
	}
	return b.Finalize(p.N)
}

// Keys holds the model-specific proving and verification keys.
type Keys struct {
	PK *plonkish.ProvingKey
	VK *plonkish.VerifyingKey
}

// Setup generates the proving/verification keys for the plan (fixed
// columns — selectors, tables, weights — are input-independent).
func (p *Plan) Setup() (*Keys, error) {
	art, err := p.Synthesize(p.Sample)
	if err != nil {
		return nil, err
	}
	pk, vk, err := plonkish.Setup(art.CS, art.N, art.Fixed, p.Backend)
	if err != nil {
		return nil, err
	}
	return &Keys{PK: pk, VK: vk}, nil
}

// Proof bundles a plonkish proof with its public values (the model
// outputs exposed through the instance column).
type Proof struct {
	Proof    *plonkish.Proof
	Instance [][]ff.Element
}

// Prove synthesizes the witness for an input and produces a proof plus the
// public values.
func (p *Plan) Prove(keys *Keys, in *model.Input) (*Proof, error) {
	if keys == nil || keys.PK == nil {
		return nil, fmt.Errorf("core: keys carry no proving key (verify-only system)")
	}
	art, err := p.Synthesize(in)
	if err != nil {
		return nil, err
	}
	proof, err := plonkish.Prove(keys.PK, art.Instance, art.Witness)
	if err != nil {
		return nil, err
	}
	return &Proof{Proof: proof, Instance: art.Instance}, nil
}

// ProveTraced is Prove with stage-level observability: it returns the
// proof together with an obs.Report of per-stage wall times and kernel
// counters. The proof bytes are identical to an untraced Prove. The report
// covers only the plonkish proving pipeline; witness synthesis happens
// before tracing starts.
func (p *Plan) ProveTraced(keys *Keys, in *model.Input) (*Proof, *obs.Report, error) {
	if keys == nil || keys.PK == nil {
		return nil, nil, fmt.Errorf("core: keys carry no proving key (verify-only system)")
	}
	art, err := p.Synthesize(in)
	if err != nil {
		return nil, nil, err
	}
	trace := obs.NewTrace()
	proof, err := plonkish.ProveTraced(keys.PK, art.Instance, art.Witness, trace)
	if err != nil {
		return nil, nil, err
	}
	return &Proof{Proof: proof, Instance: art.Instance}, trace.Report(), nil
}

// CompareEstimate lines a traced run's measured stage times up against the
// cost model's per-stage predictions for this plan's layout (paper §7.4,
// eqs. (1)–(2)). Returns nil when the plan carries no calibration.
func (p *Plan) CompareEstimate(r *obs.Report) []obs.StageComparison {
	if p.Calibration == nil || r == nil {
		return nil
	}
	return r.CompareEstimate(p.Calibration.PredictStages(p.Layout))
}

// Verify checks a proof against the verification key and public values.
func (p *Plan) Verify(keys *Keys, proof *Proof) error {
	return plonkish.Verify(keys.VK, proof.Instance, proof.Proof)
}
