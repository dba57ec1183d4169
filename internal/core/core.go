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
	// Layout is the work a proof of this layout does, proof bytes included;
	// the cost model prices it.
	Layout plonkish.Shape
	Cost   float64 // estimated proving seconds
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
	if err := opt.Calibration.Validate(); err != nil {
		return nil, nil, Stats{}, fmt.Errorf("core: options require a valid calibration: %w", err)
	}
	minCols, maxCols := opt.colRange()
	var best *Candidate
	var all []Candidate
	var firstErr error // why the first layout the model cannot fit failed
	stats := Stats{}
	for _, tmpl := range opt.templates() {
		seenK := map[int]bool{}
		for nCols := minCols; nCols <= maxCols; nCols++ {
			cfg := tmpl
			cfg.NumCols = nCols
			if cfg.Validate() != nil {
				continue
			}
			// Row-exact simulation (GeneratePhysicalLayout +
			// FindOptimalK in Algorithm 1). Configurations the model
			// cannot fit (e.g. an embedding row wider than the column
			// budget) are skipped, not fatal.
			b, err := g.SimulateCircuit(cfg, sample)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
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
		err := fmt.Errorf("core: no feasible layout for %s in [%d,%d] columns", g.Name, minCols, maxCols)
		if firstErr != nil {
			err = fmt.Errorf("%w: %w", err, firstErr)
		}
		return nil, all, stats, err
	}
	plan := &Plan{Graph: g, Sample: sample, Candidate: *best, Backend: opt.Backend, Calibration: opt.Calibration}
	return plan, all, stats, nil
}

// templates returns the logical layouts Optimize searches, before a column
// count is set.
func (opt Options) templates() []gadgets.Config {
	if opt.Configs != nil {
		return opt.Configs
	}
	configs := gadgets.EnumerateConfigs(0, opt.FP)
	if !opt.Prune {
		// Without pruning, also consider the redundant dedicated-vs-viadot
		// axis (the pruned search fixes one implementation per layer
		// family).
		for _, c := range configs {
			c.Arith = gadgets.ArithViaDot
			configs = append(configs, c)
		}
	}
	return configs
}

// colRange returns the column counts Optimize searches.
func (opt Options) colRange() (lo, hi int) {
	lo = max(opt.MinCols, 4)
	return lo, max(opt.MaxCols, lo)
}

// Admits reports whether Optimize under opt can choose cfg: one of the
// templates it searches, at a column count inside its range. A stored
// artifact whose config fails this was not compiled under these options, and
// re-synthesizing it could cost more than compiling the model does.
func (opt Options) Admits(cfg gadgets.Config) bool {
	if lo, hi := opt.colRange(); cfg.NumCols < lo || cfg.NumCols > hi {
		return false
	}
	for _, t := range opt.templates() {
		t.NumCols = cfg.NumCols
		if t == cfg {
			return true
		}
	}
	return false
}

func score(c *Candidate, obj Objective) float64 {
	if obj == MinSize {
		return float64(c.Layout.ProofBytes)
	}
	return c.Cost
}

// price estimates the cost of a simulated layout (EstimateCost in
// Algorithm 1) at the minimal grid that fits.
func price(b *gadgets.Builder, cfg gadgets.Config, opt Options) (*Candidate, error) {
	cs, err := b.ConstraintSystem()
	if err != nil {
		return nil, err
	}
	cand := candidateOf(cs, b.MinN(), b.MinRows(), cfg, opt.Backend)
	cand.Cost = opt.Calibration.EstimateProvingTime(cand.Layout)
	return &cand, nil
}

// candidateOf describes a circuit on an n-row grid as a layout candidate —
// grid, used rows and shape — on the domain the keys and proofs use. Cost is
// the caller's.
func candidateOf(cs *plonkish.CS, n, usedRows int, cfg gadgets.Config, backend pcs.Backend) Candidate {
	s := plonkish.ShapeOf(cs, n, backend)
	return Candidate{Config: cfg, N: n, K: s.K, UsedRows: usedRows, Layout: s}
}

// PlanFor builds a plan from one explicit configuration without running the
// optimizer (used by the fixed-configuration and fixed-gadget-set ablations,
// Tables 10/11/13). The grid is the minimal power of two that fits.
func PlanFor(g *model.Graph, sample *model.Input, cfg gadgets.Config, backend pcs.Backend, calib *costmodel.Calibration) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, err := g.SimulateCircuit(cfg, sample)
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

// Synthesize builds the circuit and witness for an input under this plan:
// a full build, with the constraint system and fixed columns keygen reads.
func (p *Plan) Synthesize(in *model.Input) (*gadgets.Artifact, error) {
	b, _, err := p.Graph.BuildCircuit(p.Config, in)
	if err != nil {
		return nil, err
	}
	return b.Finalize(p.N)
}

// SynthesizeLink builds what a prove of one link of a sharded chain (or of
// a plain plan, with a nil acts) reads: a witness build, whose artifact has
// the witness and the instance but no constraint system or fixed columns —
// the prover takes both from its key. It also records the quantized values
// of every graph output into acts, keyed by tensor name — the boundary
// activations the following chunks take as their act inputs
// (model.Partitioning.ChunkInput). A nil acts records nothing.
func (p *Plan) SynthesizeLink(in *model.Input, acts map[string][]int64) (*gadgets.Artifact, error) {
	b, outs, err := p.Graph.BuildWitness(p.Config, in)
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
	return p.prove(keys, in, nil)
}

// ProveTraced is Prove with stage-level observability: it returns the
// proof together with an obs.Report of per-stage wall times and kernel
// counters. The proof bytes are identical to an untraced Prove. The report
// covers only the plonkish proving pipeline; witness synthesis happens
// before tracing starts.
func (p *Plan) ProveTraced(keys *Keys, in *model.Input) (*Proof, *obs.Report, error) {
	trace := obs.NewTrace()
	proof, err := p.prove(keys, in, trace)
	if err != nil {
		return nil, nil, err
	}
	return proof, trace.Report(), nil
}

// prove is Prove and ProveTraced: a nil trace records nothing.
func (p *Plan) prove(keys *Keys, in *model.Input, trace *obs.Trace) (*Proof, error) {
	if keys == nil || keys.PK == nil {
		return nil, fmt.Errorf("core: keys carry no proving key (verify-only system)")
	}
	art, err := p.SynthesizeLink(in, nil)
	if err != nil {
		return nil, err
	}
	proof, err := plonkish.ProveTraced(keys.PK, art.Instance, art.Witness, trace)
	if err != nil {
		return nil, err
	}
	return &Proof{Proof: proof, Instance: art.Instance}, nil
}

// CompareEstimate lines a traced run's measured stage times up against the
// cost model's per-stage predictions for this plan's shape (paper §7.4).
// Returns nil when the plan carries no calibration.
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
