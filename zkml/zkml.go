// Package zkml is the public API of ZKML-Go, a reproduction of "ZKML: An
// Optimizing System for ML Inference in Zero-Knowledge Proofs" (EuroSys
// 2024). It compiles ML model specifications into halo2-style Plonkish
// ZK-SNARK circuits, choosing gadget implementations and the circuit layout
// with a hardware-calibrated cost optimizer, and produces proofs under
// either the KZG or the transparent IPA commitment backend.
//
// Typical flow:
//
//	spec, _ := zkml.Model("mnist")
//	sys, _ := zkml.Compile(spec.Build(), spec.Input(1), zkml.Options{})
//	proof, _ := sys.Prove(spec.Input(42))
//	err := sys.Verify(proof)
package zkml

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/ff"
	"repro/internal/fixedpoint"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pcs"
	"repro/internal/plonkish"
	"repro/internal/wire"
	"repro/internal/zkerrors"
)

// Error taxonomy for untrusted input (see DESIGN.md §9). Every error
// returned while decoding or checking attacker-controlled bytes wraps one
// of these sentinels; dispatch with errors.Is.
var (
	// ErrMalformedProof: proof bytes are structurally invalid (truncated,
	// bad lengths, off-curve points, backend-inconsistent openings).
	ErrMalformedProof = zkerrors.ErrMalformedProof
	// ErrMalformedModel: a model specification file is structurally
	// invalid (bad JSON, shape/data mismatches, unknown ops).
	ErrMalformedModel = zkerrors.ErrMalformedModel
	// ErrVerifyFailed: a well-formed proof failed a cryptographic check.
	ErrVerifyFailed = zkerrors.ErrVerifyFailed
	// ErrInvalidOptions: compilation options are inconsistent (for example
	// MinCols > MaxCols, a negative ScaleBits, or LookupBits not exceeding
	// ScaleBits). Returned by Compile/Optimize before any work runs.
	ErrInvalidOptions = zkerrors.ErrInvalidOptions
)

// Backend selects the polynomial commitment scheme.
type Backend = pcs.Backend

// Commitment backends.
const (
	// KZG: small proofs, fast verification, trusted setup.
	KZG = pcs.KZG
	// IPA: transparent setup, larger proofs, linear-time verification.
	IPA = pcs.IPA
)

// Objective selects what the optimizer minimizes.
type Objective = core.Objective

// Optimizer objectives.
const (
	// MinTime minimizes proving time (the default).
	MinTime = core.MinTime
	// MinSize minimizes proof size (for on-chain verification).
	MinSize = core.MinSize
)

// Graph is an ML model specification.
type Graph = model.Graph

// Input is a concrete inference input.
type Input = model.Input

// Options configures compilation.
type Options struct {
	// Backend selects KZG (default) or IPA.
	Backend Backend
	// Objective selects MinTime (default) or MinSize.
	Objective Objective
	// ScaleBits sets the fixed-point scale factor 2^ScaleBits (default 7).
	ScaleBits int
	// LookupBits sets the lookup-table precision (default ScaleBits+5).
	LookupBits int
	// MinCols / MaxCols bound the layout search (defaults 6..32).
	MinCols, MaxCols int
	// CalibrationPath names a fitted calibration file written by `zkml
	// calibrate` (optional). Without one, or when the file is missing, stale
	// or partial, layouts are priced at the static calibration; nothing is
	// measured or written either way.
	CalibrationPath string
	// Calibration overrides the cost calibration (optional; takes
	// precedence over CalibrationPath).
	Calibration *costmodel.Calibration
}

// calibration resolves the cost calibration the options name: the
// override, else the file at CalibrationPath if it validates, else the
// static calibration. It runs no kernel.
func (o Options) calibration() *costmodel.Calibration {
	if o.Calibration != nil {
		return o.Calibration
	}
	return costmodel.LoadOrStatic(o.CalibrationPath)
}

func (o Options) withDefaults() Options {
	if o.ScaleBits == 0 {
		o.ScaleBits = 7
	}
	if o.LookupBits == 0 {
		o.LookupBits = o.ScaleBits + 5
	}
	if o.MinCols == 0 {
		o.MinCols = 6
	}
	if o.MaxCols == 0 {
		o.MaxCols = 32
	}
	if o.Objective == "" {
		o.Objective = MinTime
	}
	return o
}

// validate rejects inconsistent options with a clear error up front, before
// any calibration, synthesis, or keygen work runs. All failures wrap
// ErrInvalidOptions. Called on the withDefaults()-resolved options, so zero
// values have already been filled in and only genuinely bad inputs fail.
func (o Options) validate() error {
	o = o.withDefaults()
	bad := func(format string, args ...any) error {
		return fmt.Errorf("zkml: %s: %w", fmt.Sprintf(format, args...), zkerrors.ErrInvalidOptions)
	}
	if o.Backend != KZG && o.Backend != IPA {
		return bad("unknown backend %d", int(o.Backend))
	}
	if o.Objective != MinTime && o.Objective != MinSize {
		return bad("unknown objective %q", string(o.Objective))
	}
	if o.ScaleBits < 1 || o.ScaleBits > 24 {
		return bad("ScaleBits %d out of range [1,24]", o.ScaleBits)
	}
	if o.LookupBits <= o.ScaleBits {
		return bad("LookupBits %d must exceed ScaleBits %d", o.LookupBits, o.ScaleBits)
	}
	if o.LookupBits > 26 {
		return bad("LookupBits %d out of range (max 26)", o.LookupBits)
	}
	if o.MinCols < 1 {
		return bad("MinCols %d must be positive", o.MinCols)
	}
	if o.MinCols > o.MaxCols {
		return bad("MinCols %d exceeds MaxCols %d", o.MinCols, o.MaxCols)
	}
	return nil
}

// System is a compiled model: the optimizer-selected circuit layout plus
// the model-specific proving and verification keys.
type System struct {
	Plan *core.Plan
	Keys *core.Keys
	// opts records the options the system was compiled (or loaded) with, so
	// Save can fingerprint the artifact it writes.
	opts Options
}

// Proof is a model-inference proof with its public outputs.
type Proof = core.Proof

// SetParallelism caps the worker count used by the proving engine's
// parallel stages (MSMs, FFTs, and the prover's per-column and per-row
// loops). n <= 0 restores the default of GOMAXPROCS. Proofs are
// byte-for-byte independent of this setting; it only trades wall-clock
// time against CPU. Not safe to call concurrently with an active Prove.
func SetParallelism(n int) { parallel.SetWorkers(n) }

// Model looks up a bundled evaluation model by name (see ModelNames).
func Model(name string) (model.Spec, error) { return model.Get(name) }

// ModelNames lists the bundled evaluation models (Table 5 of the paper).
func ModelNames() []string { return model.Names() }

// LoadModel reads a model specification from a JSON file.
func LoadModel(path string) (*Graph, error) { return model.Load(path) }

// Optimize runs the layout optimizer without generating keys, returning the
// chosen plan and every candidate considered.
func Optimize(g *Graph, sample *Input, o Options) (*core.Plan, []core.Candidate, core.Stats, error) {
	if err := o.validate(); err != nil {
		return nil, nil, core.Stats{}, err
	}
	opt := o.coreOptions()
	if err := opt.FP.Validate(); err != nil {
		return nil, nil, core.Stats{}, err
	}
	opt.Calibration = o.calibration()
	return core.Optimize(g, sample, opt)
}

// coreOptions maps the options onto the optimizer's, calibration aside.
func (o Options) coreOptions() core.Options {
	o = o.withDefaults()
	opt := core.DefaultOptions(o.Backend, fixedpoint.Params{ScaleBits: o.ScaleBits, LookupBits: o.LookupBits})
	opt.Objective = o.Objective
	opt.MinCols, opt.MaxCols = o.MinCols, o.MaxCols
	return opt
}

// Compile optimizes the circuit layout for a model and generates its
// proving and verification keys. The sample input drives the row-exact
// layout simulation; layouts never depend on input values.
func Compile(g *Graph, sample *Input, o Options) (*System, error) {
	plan, _, _, err := Optimize(g, sample, o)
	if err != nil {
		return nil, err
	}
	keys, err := plan.Setup()
	if err != nil {
		return nil, fmt.Errorf("zkml: keygen: %w", err)
	}
	return &System{Plan: plan, Keys: keys, opts: o}, nil
}

// Prove produces a ZK-SNARK that the committed model, applied to the given
// (private) input, yields the public outputs carried in the proof.
func (s *System) Prove(in *Input) (*Proof, error) {
	return s.Plan.Prove(s.Keys, in)
}

// ProveTraced is Prove with stage-level observability (DESIGN.md §11): it
// additionally returns an obs.Report with per-stage wall times and kernel
// counters (MSM/FFT counts by size, batch-inversion flushes, opening
// times). Tracing is proof-transparent — the proof bytes are identical to
// Prove's. The kernel sinks are process-wide, so run at most one traced
// prove at a time.
func (s *System) ProveTraced(in *Input) (*Proof, *obs.Report, error) {
	return s.Plan.ProveTraced(s.Keys, in)
}

// CompareEstimate lines a traced run's measured stage times up against the
// compiled plan's cost-model predictions (paper §7.4), one row per prover
// stage plus a total.
func (s *System) CompareEstimate(r *obs.Report) []obs.StageComparison {
	return s.Plan.CompareEstimate(r)
}

// Verify checks a proof against the model's verification key. The verifier
// learns the model architecture and the outputs but neither the weights nor
// the input.
func (s *System) Verify(p *Proof) error {
	return s.Plan.Verify(s.Keys, p)
}

// AuditReport is the machine-readable result of the static circuit audit;
// AuditFinding is one located defect (see internal/audit for the defect
// taxonomy and severities).
type (
	AuditReport  = audit.Report
	AuditFinding = audit.Finding
)

// Audit statically analyzes the compiled circuit for soundness and liveness
// defects before any proof is made: unconstrained witness cells, gates and
// lookups whose selectors are never set, malformed copy-constraint wiring,
// lookup inputs whose statically-derivable range exceeds their table, and
// constraint degrees that overflow the quotient domain. The check is pinned
// to the exact degree bound and extended domain this system's proving key
// uses. A report with Clean() == false means proofs from this system do not
// enforce what the model graph claims.
func (s *System) Audit() (*AuditReport, error) {
	return s.Plan.Audit(s.Keys, nil)
}

// Outputs dequantizes the public output values of a proof. A proof that
// carries no instance columns (possible for imported bytes — ImportProof
// accepts a zero column count, and verification is what rejects it) yields
// an empty slice rather than panicking on untrusted input.
func (s *System) Outputs(p *Proof) []float64 {
	if p == nil || len(p.Instance) == 0 {
		return nil
	}
	fp := s.Plan.Config.FP
	vals := p.Instance[0]
	out := make([]float64, len(vals))
	for i := range vals {
		v := vals[i]
		out[i] = fp.Dequantize(v.Int64())
	}
	return out
}

// exportProofBytes is the shared serialization behind System.ExportProof
// and ShardedSystem.ExportProof: a one-byte instance-column count, each
// column as a count-prefixed section of scalars, then the proof body.
func exportProofBytes(p *Proof) ([]byte, error) {
	body, err := p.Proof.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if len(p.Instance) > 255 {
		return nil, fmt.Errorf("zkml: proof has %d instance columns, export format supports at most 255", len(p.Instance))
	}
	var w wire.Writer
	w.Byte(byte(len(p.Instance)))
	for _, col := range p.Instance {
		w.Scalars(col)
	}
	w.Raw(body)
	return w.Bytes(), nil
}

// importProofBytes is the shared decoder behind System.ImportProof and
// ShardedSystem.ImportProof. The bytes are untrusted: structural failures,
// non-canonical instance scalars included, wrap ErrMalformedProof, and
// arbitrary input never panics or over-allocates.
func importProofBytes(data []byte) (*Proof, error) {
	r := wire.NewReader(data, ErrMalformedProof)
	inst := make([][]ff.Element, r.Byte("instance column count"))
	for c := range inst {
		inst[c] = r.Scalars("instance value")
	}
	body := r.Rest()
	if err := r.Err(); err != nil {
		return nil, err
	}
	p := &Proof{Instance: inst, Proof: new(plonkish.Proof)}
	if err := p.Proof.UnmarshalBinary(body); err != nil {
		return nil, err
	}
	return p, nil
}

// ExportProof serializes a proof (and its public values) for transport.
// The instance-column count is carried in one byte; proofs with more than
// 255 instance columns are rejected here rather than silently truncating
// the count and corrupting the round trip.
func (s *System) ExportProof(p *Proof) ([]byte, error) {
	return exportProofBytes(p)
}

// ImportProof deserializes a proof produced by ExportProof. The bytes are
// untrusted: structural failures (including non-canonical instance scalar
// encodings) wrap ErrMalformedProof and arbitrary input never panics or
// over-allocates.
func (s *System) ImportProof(data []byte) (*Proof, error) {
	return importProofBytes(data)
}

// ModelCommitment returns a digest binding the compiled circuit, including
// the committed (but hidden) weight columns — the public commitment an
// auditor pins (Figure 2 of the paper).
func (s *System) ModelCommitment() []byte {
	return s.Keys.VK.Digest()
}

// Describe summarizes the compiled layout.
func (s *System) Describe() string {
	p := s.Plan
	return fmt.Sprintf("%s: %d advice cols, 2^%d rows (%d used), dot=%s constdot=%v, backend=%s, est. %.2fs / %d B",
		p.Graph.Name, p.Config.NumCols, p.K, p.UsedRows, p.Config.Dot, p.Config.UseConstDot,
		p.Backend, p.Cost, p.Layout.ProofBytes)
}
