// Trace-driven calibration. The static unit costs are nominal: they fix
// how the priced counts scale with a layout, not what a second of this
// machine's prover buys, and equation (1) carries no term at all for
// transcript hashing, batch-to-affine conversion, blinding, or
// allocation/copy traffic. FitFromSamples closes the gap empirically: given
// (shape, traced report) pairs from real proves, it regresses a
// per-backend, per-stage affine correction
//
//	measured ≈ Gain·base + PerRow·work
//
// where base is the stage's static price and work its column-row count
// (stageWork), both from the plonkish.Shape. Gain maps the nominal unit
// costs onto this machine, PerRow prices the omitted per-column overheads.
// The fitted constants persist in the calibration file (at
// CalibrationVersion) and flow through PredictStages/EstimateProvingTime,
// so Algorithm 1 ranks candidate layouts with a model that has been
// validated against this machine.
package costmodel

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/plonkish"
)

// Sample is one traced prove observation: the shape of the circuit proved
// and the per-stage measured report ProveTraced returned for it.
type Sample struct {
	Shape  plonkish.Shape
	Report *obs.Report
}

// fitRow is one (stage, sample) regression observation.
type fitRow struct {
	base, work, measured float64
}

// FitFromSamples regresses the per-backend, per-stage correction constants
// from traced proves and installs them on c (upgrading it to
// CalibrationVersion). Samples for several backends may be mixed; each backend is
// fitted independently. At least one sample is required; two or more
// samples per backend with different sizes let the regression separate the
// kernel gain from the per-column overhead, a single sample degenerates to
// a pure gain fit.
func (c *Calibration) FitFromSamples(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("costmodel: fit requires at least one traced sample")
	}
	// Group regression rows by (backend, stage). Base predictions are the
	// static prices, so refitting an already-fitted calibration regresses
	// against the same regressors.
	rows := map[string][]fitRow{}
	for _, s := range samples {
		if s.Report == nil {
			return fmt.Errorf("costmodel: fit sample has nil report")
		}
		base := basePredictStages(s.Shape)
		work := stageWork(s.Shape)
		for _, stage := range obs.StageNames() {
			key := FitKey(s.Shape.Backend, stage)
			rows[key] = append(rows[key], fitRow{
				base:     base[stage],
				work:     work[stage],
				measured: s.Report.StageSeconds(stage),
			})
		}
	}
	fits := map[string]StageFit{}
	for key, obsRows := range rows {
		fits[key] = solveStageFit(obsRows)
	}
	c.Fits = fits
	c.Version = CalibrationVersion
	return c.Validate()
}

// solveStageFit fits measured ≈ gain·base + perRow·work by least squares
// over the observations, constrained to non-negative coefficients. When
// the system is degenerate (one sample, collinear regressors, or a
// negative unconstrained solution) it falls back to the best single-
// regressor fit; when a stage has no signal at all it returns the neutral
// correction {Gain: 1}.
func solveStageFit(rows []fitRow) StageFit {
	var sbb, sww, sbw, sbm, swm float64
	for _, r := range rows {
		sbb += r.base * r.base
		sww += r.work * r.work
		sbw += r.base * r.work
		sbm += r.base * r.measured
		swm += r.work * r.measured
	}
	gainOnly := func() StageFit {
		if sbb > 0 && sbm > 0 {
			return StageFit{Gain: sbm / sbb}
		}
		if sww > 0 && swm > 0 {
			// No usable base estimate (stage predicted ~0): price the work
			// units directly.
			return StageFit{Gain: 1, PerRow: swm / sww}
		}
		return StageFit{Gain: 1}
	}
	det := sbb*sww - sbw*sbw
	if sbb <= 0 || sww <= 0 || det <= 1e-9*sbb*sww {
		return gainOnly()
	}
	gain := (sww*sbm - sbw*swm) / det
	perRow := (sbb*swm - sbw*sbm) / det
	if gain < 0 || perRow < 0 {
		return gainOnly()
	}
	return StageFit{Gain: gain, PerRow: perRow}
}
