// Package costmodel implements ZKML's proving-cost estimator (paper §7.4):
// the pricing of a circuit's counted work (plonkish.Shape) — the paper's
// equation (1) over the counts the prover actually runs — at static unit
// costs, corrected stage by stage by constants fitted from traced proves on
// the target machine (fit.go). Each unit cost is a closed form: the
// operation family's asymptotic operation count (n·log n for a transform,
// the Pippenger schedule for an MSM, n for a lookup) at a nominal field-op
// cost. The paper measures those units with per-operation microbenchmarks;
// here the microbenchmarks ranked layouts no better than the closed forms
// and flipped plans from run to run (EXPERIMENTS.md), so the traced fit is
// the only hardware-specific input.
package costmodel

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/curve"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/plonkish"
)

// CalibrationVersion is the version of a fitted calibration file; an
// unfitted file carries no version. Fitted constants are valid only against
// the base they were regressed over, so fits at any other version are
// refused: version 2 fits were regressed against eq. (2)'s hand-derived
// counts, version 3 against plonkish.Shape's counts at microbenchmarked unit
// costs, version 4 against the same counts at the static unit costs,
// version 5 against those units once the quotient ran on d_max − 1 coset
// parts and no longer on all ExtN/N of them, version 6 once an IPA
// opening's rounds ran as commit-table MSMs rather than halving
// variable-base ones.
const CalibrationVersion = 6

// fieldOp is the nominal cost of one field multiply-add on a current core,
// the unit every static price is a multiple of.
const fieldOp = 5e-9

// StageFit is one fitted correction for a (backend, stage) pair: the
// predicted stage time becomes Gain·base + PerRow·work, where base is the
// stage's priced counts (basePredictStages) and work its column-row count
// (stageWork). Gain maps the nominal unit costs onto this machine's kernels;
// PerRow prices the per-column overheads the unit costs omit — transcript
// hashing, batch-to-affine conversion, blinding, allocation and copy
// traffic.
type StageFit struct {
	Gain   float64 `json:"gain"`
	PerRow float64 `json:"per_row"`
}

// Calibration is the cost model's hardware-specific state: the fitted
// per-stage corrections. Without fits (StaticCalibration) predictions are
// the static prices alone, identical on every machine.
type Calibration struct {
	// Version is 0 (absent) for an unfitted calibration and
	// CalibrationVersion for a fitted one.
	Version  int    `json:"version,omitempty"`
	Hardware string `json:"hardware"`
	// Fits holds the trace-fitted per-stage corrections, keyed by
	// FitKey(backend, stage).
	Fits map[string]StageFit `json:"fit,omitempty"`
}

// FitKey returns the Fits map key for a backend and obs stage name.
func FitKey(b pcs.Backend, stage string) string {
	return strings.ToLower(b.String()) + "/" + stage
}

// StaticCalibration returns the unfitted calibration: predictions are the
// static prices alone — deterministic, instant, and the same on every
// machine, so the optimizer picks the same plan everywhere. Relative
// layout rankings follow the operation shapes; absolute times are nominal
// until a traced fit (`zkml calibrate`) maps them onto a machine.
func StaticCalibration() *Calibration { return &Calibration{Hardware: "static"} }

// Save writes the calibration to a JSON file.
func (c *Calibration) Save(path string) error {
	b, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return err
	}
	return fsio.WriteFileAtomic(path, b, 0o644)
}

// LoadCalibration reads a calibration file and checks it with Validate.
func LoadCalibration(path string) (*Calibration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Calibration
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("costmodel: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("costmodel: %s: %w", path, err)
	}
	return &c, nil
}

// LoadOrStatic returns the calibration at path if it loads and validates,
// and StaticCalibration otherwise: an empty path, a missing or unparseable
// file, a partial fit, or a fit regressed at another CalibrationVersion all
// price at the static units rather than at stale or half-applied constants.
func LoadOrStatic(path string) *Calibration {
	if path != "" {
		if c, err := LoadCalibration(path); err == nil {
			return c
		}
	}
	return StaticCalibration()
}

// Validate checks that a calibration's fitted constants can be applied: an
// unfitted calibration always can; a fitted one must be at
// CalibrationVersion, carry finite non-negative constants, and cover all
// five stages of every backend it names — a partial set would silently
// fall back to the unfitted price for the missing stages.
func (c *Calibration) Validate() error {
	switch {
	case c == nil:
		return fmt.Errorf("costmodel: nil calibration")
	case c.Version == 0 && len(c.Fits) == 0:
		return nil
	case c.Version != CalibrationVersion:
		return fmt.Errorf("costmodel: fitted calibration at version %d was regressed against another cost model (want %d)", c.Version, CalibrationVersion)
	case len(c.Fits) == 0:
		return fmt.Errorf("costmodel: v%d calibration has no fitted constants", c.Version)
	}
	backends := map[string]bool{}
	for key, f := range c.Fits {
		if f.Gain < 0 || f.PerRow < 0 ||
			math.IsNaN(f.Gain) || math.IsInf(f.Gain, 0) ||
			math.IsNaN(f.PerRow) || math.IsInf(f.PerRow, 0) {
			return fmt.Errorf("costmodel: fitted constants for %q out of range: gain=%g per_row=%g", key, f.Gain, f.PerRow)
		}
		if i := strings.IndexByte(key, '/'); i > 0 {
			backends[key[:i]] = true
		}
	}
	for b := range backends {
		for _, stage := range obs.StageNames() {
			if _, ok := c.Fits[b+"/"+stage]; !ok {
				return fmt.Errorf("costmodel: v%d calibration missing fitted constants for %s/%s", c.Version, b, stage)
			}
		}
	}
	return nil
}

// fftShape is the n·log n operation count of a size-2^k transform.
func fftShape(k int) float64 { return float64(int64(1)<<uint(k)) * float64(k) }

// fixedShape is the table-warm fixed-base operation count: all 2n·nw window
// digits share one pre-scaled bucket set, so there is a single reduction
// and no Horner doublings (see curve.FixedBaseWindows for the schedule).
func fixedShape(k int) float64 {
	n := int64(1) << uint(k)
	c, nw := curve.FixedBaseWindows(int(n))
	return float64(2*n)*float64(nw) + 2*float64(int64(1)<<uint(c-1))
}

// linearShape is the n operation count of a lookup's construction.
func linearShape(k int) float64 { return float64(int64(1) << uint(k)) }

// The static unit prices, in seconds at size 2^k: ~2 field ops per
// butterfly, ~10 per table-warm fixed-base bucket add (every commitment and
// every IPA fold round), and ~10 per lookup row (compression, index probe,
// inversions).
func fftTime(k int) float64      { return fftShape(k) * 2 * fieldOp }
func fixedMSMTime(k int) float64 { return fixedShape(k) * 10 * fieldOp }
func lookupTime(k int) float64   { return linearShape(k) * 10 * fieldOp }

// EstimateProvingTime is the predicted proving time of a circuit shape: the
// sum of PredictStages, so Algorithm 1 ranks layouts with the model the
// per-stage comparison validates, fitted constants included.
func (c *Calibration) EstimateProvingTime(s plonkish.Shape) float64 {
	// Summed in pipeline order, not map order: float addition does not
	// commute in the last bit, and the estimate is stored in artifacts.
	p := c.PredictStages(s)
	var t float64
	for _, stage := range obs.StageNames() {
		t += p[stage]
	}
	return t
}

// basePredictStages prices a shape's counted work at the static unit
// costs, stage by stage (eq. (1) over exact counts): every size-N transform
// at fftTime, every commitment at the table-warm fixedMSMTime, each
// lookup's construction at lookupTime, the quotient's program at
// VaryingOps field ops per row of each of its parts and of the check on H,
// and an IPA opening's rounds at two fixed-base MSMs each, priced at the
// N/2 scalars that are nonzero.
func basePredictStages(s plonkish.Shape) obs.StagePrediction {
	fft, msm := fftTime(s.K), fixedMSMTime(s.K)
	p := obs.StagePrediction{}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		p[st.String()] = float64(s.Transforms[st])*fft + float64(s.Commits[st])*msm
	}
	p[obs.StageLookup.String()] += float64(s.NumLookups) * lookupTime(s.K)
	p[obs.StageQuotient.String()] += float64(s.VaryingOps) * float64(plonkish.QuotientPieces(s.DMax)+1) * float64(s.N) * fieldOp
	p[obs.StageOpen.String()] += float64(s.Opens*s.FoldRounds) * 2 * fixedMSMTime(s.K-1)
	return p
}

// stageWork counts each stage's column-rows, the regressor behind
// StageFit.PerRow: the columns a stage builds or reads times the rows it
// walks — advice and instance columns in commit, m and phi in lookup, the
// permutation columns, the queried columns over the quotient's parts, and
// the opened polynomials.
func stageWork(s plonkish.Shape) map[string]float64 {
	n := float64(s.N)
	return map[string]float64{
		obs.StageCommit.String():   float64(s.Transforms[obs.StageCommit]) * n,
		obs.StageLookup.String():   float64(s.Transforms[obs.StageLookup]) * n,
		obs.StagePerm.String():     float64(s.PermCols) * n,
		obs.StageQuotient.String(): float64(s.QueriedCols*plonkish.QuotientPieces(s.DMax)) * n,
		obs.StageOpen.String():     float64(s.Queries+s.Commits[obs.StageQuotient]) * n,
	}
}

// PredictStages predicts per-stage proving time for a circuit shape: the
// static prices (basePredictStages), corrected by the calibration's fitted
// constants when present. The stage values sum exactly to
// EstimateProvingTime, so Report.CompareEstimate's "total" row validates the
// estimator end to end while the per-stage rows localize the error.
func (c *Calibration) PredictStages(s plonkish.Shape) obs.StagePrediction {
	p := basePredictStages(s)
	if len(c.Fits) == 0 {
		return p
	}
	work := stageWork(s)
	for _, stage := range obs.StageNames() {
		f, ok := c.Fits[FitKey(s.Backend, stage)]
		if !ok {
			continue
		}
		p[stage] = f.Gain*p[stage] + f.PerRow*work[stage]
	}
	return p
}
