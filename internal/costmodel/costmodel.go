// Package costmodel implements ZKML's proving-cost estimator (paper §7.4):
// a one-time hardware calibration of the four dominant operations — FFTs,
// MSMs, lookup-argument construction, and raw field operations — plus the
// paper's closed-form counts (equations (1) and (2)) that map a physical
// circuit layout to a predicted proving time.
package costmodel

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/curve"
	"repro/internal/ff"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/pcs"
	"repro/internal/poly"
)

// CalibrationVersion is the current calibration file format. Version 0/1
// files (no "version" field) carry only the kernel microbenchmark tables;
// version 2 additionally carries per-backend, per-stage fitted constants
// regressed from traced proves (see Fit / FitFromSamples).
const CalibrationVersion = 2

// StageFit is one fitted correction for a (backend, stage) pair: the
// predicted stage time becomes Gain·base + PerRow·work, where base is the
// raw eq. (1) stage estimate and work is the stage's column-row count
// (stageWork). Gain absorbs systematic kernel-constant error (e.g. the MSM
// microbenchmark undershooting real commitment MSMs); PerRow prices the
// per-column overheads eq. (1) omits — transcript hashing, batch-to-affine
// conversion, blinding, allocation and copy traffic.
type StageFit struct {
	Gain   float64 `json:"gain"`
	PerRow float64 `json:"per_row"`
}

// Calibration holds measured per-operation costs for one hardware target.
// Times are seconds for one operation at size 2^k; sizes outside the
// measured range are extrapolated with the operation's asymptotic shape
// (n·log n for FFTs, the signed-window Pippenger operation count at the
// kernel's own window schedule for MSMs, n for the rest).
type Calibration struct {
	// Version tags the file format; 0 (absent) is a legacy unfitted
	// calibration, CalibrationVersion a fitted one. Loaders accept both.
	Version  int             `json:"version,omitempty"`
	Hardware string          `json:"hardware"`
	FFT      map[int]float64 `json:"fft"`
	MSM      map[int]float64 `json:"msm"`
	// MSMFixed times the table-warm fixed-base MSM path commitments take
	// once the per-key table is built (see internal/curve fixedbase.go).
	// Optional: legacy calibration files without it fall back to MSM.
	MSMFixed map[int]float64 `json:"msm_fixed,omitempty"`
	Lookup   map[int]float64 `json:"lookup"`
	FieldOp  float64         `json:"field_op"` // one multiply-add
	// Fits holds the trace-fitted per-stage corrections, keyed by
	// FitKey(backend, stage). Empty on unfitted (v1) calibrations, in which
	// case predictions fall back to the raw eq. (1) estimates.
	Fits map[string]StageFit `json:"fit,omitempty"`
}

// FitKey returns the Fits map key for a backend and obs stage name.
func FitKey(b pcs.Backend, stage string) string {
	return strings.ToLower(b.String()) + "/" + stage
}

// msmBasis returns n pairwise-distinct affine points (i+1)·G. Pippenger's
// bucket accumulation degenerates when every point is identical (each
// bucket addition hits the expensive doubling path and the adds are
// perfectly correlated), so calibrating eq. (1) on n copies of one point
// mistimes real MSMs; the benchmark basis must look like real commitment
// inputs.
func msmBasis(n int) []curve.Affine {
	g := curve.Generator()
	jacs := make([]curve.Jac, n)
	var acc curve.Jac
	for i := range jacs {
		acc.AddMixed(&g)
		jacs[i] = acc
	}
	return curve.BatchToAffine(jacs)
}

// fullWidthScalars returns n deterministic full-width scalars via the
// squaring chain s <- s^2 + (i+1). Commitment MSMs see uniform ~254-bit
// scalars; calibrating with small sequential scalars (the old 3i+7) left
// every high signed-digit Pippenger window empty and measured a fraction of
// the real per-MSM cost — the single largest source of the 5–20x stage
// underprediction BENCH_5.json recorded.
func fullWidthScalars(n int) []ff.Element {
	scs := make([]ff.Element, n)
	s := ff.NewElement(3)
	for i := 0; i < n; i++ {
		s.Mul(&s, &s)
		inc := ff.NewElement(uint64(i + 1))
		s.Add(&s, &inc)
		scs[i] = s
	}
	return scs
}

// calibrationReps is how often each microbenchmark is repeated; the median
// is kept, so one scheduler hiccup cannot poison a cached calibration file.
const calibrationReps = 3

// medianSeconds runs f reps times and returns the median wall time.
func medianSeconds(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		f()
		ts[i] = time.Since(start).Seconds()
	}
	sort.Float64s(ts)
	return ts[len(ts)/2]
}

// lookupBench mirrors the prover's per-lookup construction at n rows: theta
// compression of inputs and table, the table-index map build and per-row
// probes (32-byte keys, the dominant cost), the two batch inversions, and
// the phi accumulator walk. The previous microbenchmark timed only the two
// batch inversions and undershot the measured lookup stage ~13x.
func lookupBench(n int) {
	theta := ff.NewElement(0x9e3779b97f4a7c15)
	f := make([]ff.Element, n)
	t := make([]ff.Element, n)
	for r := 0; r < n; r++ {
		a := ff.NewElement(uint64(r + 1))
		b := ff.NewElement(uint64(2*r + 3))
		acc := b
		acc.Mul(&acc, &theta)
		acc.Add(&acc, &a)
		f[r] = acc
		t[r] = acc
	}
	idx := make(map[[32]byte]int, n)
	for r := 0; r < n; r++ {
		key := t[r].Bytes()
		if _, dup := idx[key]; !dup {
			idx[key] = r
		}
	}
	m := make([]ff.Element, n)
	one := ff.One()
	for r := 0; r < n; r++ {
		if ti, ok := idx[f[r].Bytes()]; ok {
			m[ti].Add(&m[ti], &one)
		}
	}
	beta := ff.NewElement(0xdeadbeef)
	invF := make([]ff.Element, n)
	invT := make([]ff.Element, n)
	for r := 0; r < n; r++ {
		invF[r].Add(&beta, &f[r])
		invT[r].Add(&beta, &t[r])
	}
	ff.BatchInverse(invF)
	ff.BatchInverse(invT)
	phi := make([]ff.Element, n+1)
	for r := 0; r < n; r++ {
		var term, t2 ff.Element
		term.Mul(&one, &invF[r])
		t2.Mul(&m[r], &invT[r])
		term.Sub(&term, &t2)
		phi[r+1].Add(&phi[r], &term)
	}
}

// Calibrate measures the four operation families at sizes 2^minK..2^maxK.
// The paper performs this once per hardware configuration (§7.4). Each
// measurement is the median of calibrationReps runs.
func Calibrate(minK, maxK int) *Calibration {
	c := &Calibration{
		Hardware: "local",
		FFT:      map[int]float64{},
		MSM:      map[int]float64{},
		MSMFixed: map[int]float64{},
		Lookup:   map[int]float64{},
	}
	basis := msmBasis(1 << uint(maxK))
	scalars := fullWidthScalars(1 << uint(maxK))
	// The commitment path runs against a per-key fixed-base table built over
	// the full basis and reused at every prefix size, so the microbenchmark
	// mirrors that: one table at 2^maxK, timed at each k. Built directly at
	// the curve layer — going through pcs would perturb its process-wide
	// table cache and setup-work counters mid-test.
	fixedTab := curve.NewFixedBaseTable(basis)
	for k := minK; k <= maxK; k++ {
		n := 1 << uint(k)
		d := poly.NewDomain(n)
		p := make([]ff.Element, n)
		for i := range p {
			p[i] = ff.NewElement(uint64(i + 1))
		}
		c.FFT[k] = medianSeconds(calibrationReps, func() { d.FFT(p) })

		// MSM over a distinct-point basis with full-width scalars (see
		// msmBasis and fullWidthScalars for why both must look like real
		// commitment inputs).
		pts := basis[:n]
		scs := scalars[:n]
		c.MSM[k] = medianSeconds(calibrationReps, func() { curve.MSM(pts, scs) })
		if fixedTab != nil {
			c.MSMFixed[k] = medianSeconds(calibrationReps, func() { fixedTab.MSM(scs) })
		}

		c.Lookup[k] = medianSeconds(calibrationReps, func() { lookupBench(n) })
	}
	// Field multiply-add.
	x, y := ff.NewElement(12345), ff.NewElement(67891)
	var z ff.Element
	c.FieldOp = medianSeconds(calibrationReps, func() {
		const reps = 1 << 18
		for i := 0; i < reps; i++ {
			z.Mul(&x, &y)
			z.Add(&z, &x)
		}
	}) / (1 << 18)
	return c
}

// DefaultCalibration calibrates over a small range quickly (used when no
// cached calibration file exists).
func DefaultCalibration() *Calibration { return Calibrate(10, 13) }

// StaticCalibration returns a deterministic, hardware-independent
// calibration derived purely from the operations' asymptotic shape functions
// at a nominal field-op cost — no benchmark runs, instant, identical on
// every machine. Relative layout rankings follow the shapes; absolute times
// are nominal. It backs paths where layout selection must be fast and
// reproducible but proving never happens (the `zkml audit` CLI, tests); for
// real proving-time estimates use Calibrate/LoadOrCalibrate.
func StaticCalibration() *Calibration {
	const fieldOp = 5e-9 // nominal multiply-add on a current core
	c := &Calibration{
		Hardware: "static",
		FFT:      map[int]float64{},
		MSM:      map[int]float64{},
		MSMFixed: map[int]float64{},
		Lookup:   map[int]float64{},
		FieldOp:  fieldOp,
	}
	// Seed the tables from the same shape functions interp extrapolates
	// with, so estimates are shape-exact at every k, and at the same
	// per-op multipliers the Time* fallback floors use.
	for k := 10; k <= 13; k++ {
		c.FFT[k] = fftShape(k) * 2 * fieldOp
		c.MSM[k] = msmShape(k) * 10 * fieldOp
		c.MSMFixed[k] = fixedShape(k) * 10 * fieldOp
		c.Lookup[k] = linearShape(k) * 10 * fieldOp
	}
	return c
}

// Save writes the calibration to a JSON file.
func (c *Calibration) Save(path string) error {
	b, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return err
	}
	return fsio.WriteFileAtomic(path, b, 0o644)
}

// LoadCalibration reads a calibration file.
func LoadCalibration(path string) (*Calibration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Calibration
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("costmodel: parsing %s: %w", path, err)
	}
	return &c, nil
}

// Validate checks that every cost table a layout decision depends on is
// populated. A calibration file with an empty MSM or Lookup table (or a
// zero FieldOp) would silently price those operations at 0 and skew layout
// selection toward whatever the file happens to measure.
func (c *Calibration) Validate() error {
	if c == nil {
		return fmt.Errorf("costmodel: nil calibration")
	}
	if len(c.FFT) == 0 {
		return fmt.Errorf("costmodel: calibration has empty FFT table")
	}
	if len(c.MSM) == 0 {
		return fmt.Errorf("costmodel: calibration has empty MSM table")
	}
	if len(c.Lookup) == 0 {
		return fmt.Errorf("costmodel: calibration has empty Lookup table")
	}
	if c.FieldOp <= 0 {
		return fmt.Errorf("costmodel: calibration has non-positive FieldOp %g", c.FieldOp)
	}
	if c.Version > CalibrationVersion {
		return fmt.Errorf("costmodel: calibration version %d newer than supported %d", c.Version, CalibrationVersion)
	}
	if c.Version >= 2 {
		if len(c.Fits) == 0 {
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
		// Every backend the file claims to cover must carry all five stages;
		// a partial set would silently fall back to the raw (unfitted)
		// estimate for the missing stages.
		for b := range backends {
			for _, stage := range obs.StageNames() {
				if _, ok := c.Fits[b+"/"+stage]; !ok {
					return fmt.Errorf("costmodel: v%d calibration missing fitted constants for %s/%s", c.Version, b, stage)
				}
			}
		}
	}
	return nil
}

// loadValidCalibration loads path and accepts it only if every cost table
// passes Validate; the bool reports whether the file is usable.
func loadValidCalibration(path string) (*Calibration, bool) {
	c, err := LoadCalibration(path)
	if err != nil {
		return nil, false
	}
	if err := c.Validate(); err != nil {
		return nil, false
	}
	return c, true
}

// LoadOrCalibrate loads a cached calibration or produces and caches one.
// Partial files (any empty table or zero FieldOp) are treated as missing
// and trigger recalibration rather than pricing operations at 0.
func LoadOrCalibrate(path string) *Calibration {
	if c, ok := loadValidCalibration(path); ok {
		return c
	}
	c := DefaultCalibration()
	if path != "" {
		_ = c.Save(path) // cache failures are non-fatal
	}
	return c
}

// interp looks up or extrapolates a per-size cost table using the given
// asymptotic shape function.
func interp(table map[int]float64, k int, shape func(k int) float64) float64 {
	if t, ok := table[k]; ok {
		return t
	}
	// Use the nearest measured k and scale by the shape ratio.
	best, found := 0, false
	for mk := range table {
		if !found || abs(mk-k) < abs(best-k) {
			best, found = mk, true
		}
	}
	if !found {
		return 0
	}
	return table[best] * shape(k) / shape(best)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// fieldOpFloor returns the calibrated field-op cost, or a conservative
// ~1 ns default when the calibration carries none, so derived floors are
// never zero.
func (c *Calibration) fieldOpFloor() float64 {
	if c.FieldOp > 0 {
		return c.FieldOp
	}
	return 1e-9
}

// fftShape is the n·log n asymptotic used for FFT extrapolation.
func fftShape(k int) float64 { return float64(int64(1)<<uint(k)) * float64(k) }

// msmShape is the signed-window Pippenger operation count at the kernel's
// own window schedule: windows·(points bucket adds + 2·2^(c-1) reduction
// adds), with the window width c (and hence the bucket count) coming from
// the kernel's own scheduler so the model tracks its memory-budget clamp.
// The kernel runs 2n GLV half-scalar points through ~half the windows, so
// the shape follows curve.GLVWindows.
func msmShape(k int) float64 {
	n := int64(1) << uint(k)
	c, nw := curve.GLVWindows(int(n))
	return float64(nw) * (float64(2*n) + 2*float64(int64(1)<<uint(c-1)))
}

// fixedShape is the table-warm fixed-base operation count: all 2n·nw window
// digits share one pre-scaled bucket set, so there is a single reduction
// and no Horner doublings (see curve.FixedBaseWindows for the schedule).
func fixedShape(k int) float64 {
	n := int64(1) << uint(k)
	c, nw := curve.FixedBaseWindows(int(n))
	return float64(2*n)*float64(nw) + 2*float64(int64(1)<<uint(c-1))
}

// linearShape is the n asymptotic used for lookup extrapolation.
func linearShape(k int) float64 { return float64(int64(1) << uint(k)) }

// TimeFFT returns the estimated seconds for one size-2^k FFT. A hand-built
// calibration with an empty (but non-nil) FFT table would otherwise price
// FFTs at exactly 0 — the partial-file bug class — so an empty or zeroed
// table falls back to a field-op-derived floor (~2 ops per butterfly)
// instead of zero.
func (c *Calibration) TimeFFT(k int) float64 {
	if t := interp(c.FFT, k, fftShape); t > 0 {
		return t
	}
	return fftShape(k) * 2 * c.fieldOpFloor()
}

// TimeMSM returns the estimated seconds for one size-2^k MSM (see msmShape
// for the extrapolation model). An empty or zeroed table falls back to a
// field-op-derived floor (~10 field ops per Pippenger bucket add) instead
// of pricing MSMs at zero.
func (c *Calibration) TimeMSM(k int) float64 {
	if t := interp(c.MSM, k, msmShape); t > 0 {
		return t
	}
	return msmShape(k) * 10 * c.fieldOpFloor()
}

// TimeMSMFixed returns the estimated seconds for one size-2^k commitment
// MSM on the table-warm fixed-base path. Legacy calibrations without an
// msm_fixed table fall back to the generic MSM estimate, which only
// overprices commitments (never underprices the layout).
func (c *Calibration) TimeMSMFixed(k int) float64 {
	if t := interp(c.MSMFixed, k, fixedShape); t > 0 {
		return t
	}
	return c.TimeMSM(k)
}

// TimeLookup returns the estimated seconds to construct one lookup argument
// at 2^k rows. An empty or zeroed table falls back to a field-op-derived
// floor (~10 ops per row: compression, map probe, inversions) instead of
// pricing lookups at zero.
func (c *Calibration) TimeLookup(k int) float64 {
	if t := interp(c.Lookup, k, linearShape); t > 0 {
		return t
	}
	return linearShape(k) * 10 * c.fieldOpFloor()
}

// Layout summarizes a physical circuit layout for cost estimation.
type Layout struct {
	K              int // log2 rows
	NumInstance    int
	NumAdvice      int
	NumFixed       int
	NumLookups     int
	NumPermCols    int
	DMax           int
	NumConstraints int
	ConstraintOps  int // total expression nodes across constraints
	Backend        pcs.Backend
}

// NumFFT implements equation (2) of the paper:
//
//	n_FFT = N_i + N_a + 3·N_lk + (N_pm + d_max - 3)/(d_max - 2)
func (l Layout) NumFFT() int {
	return l.NumInstance + l.NumAdvice + 3*l.NumLookups + l.permChunks()
}

// NumMSM follows the paper: n_FFT + d_max - 1 for KZG, n_FFT + d_max for
// IPA (the extra terms are quotient-piece commitments and evaluation-proof
// MSMs).
func (l Layout) NumMSM() int {
	n := l.NumFFT() + l.DMax - 1
	if l.Backend == pcs.IPA {
		n++
	}
	return n
}

// ExtK returns k' = k + ceil(log2(d_max - 1)): the extended-domain FFT size
// for quotient computation.
func (l Layout) ExtK() int {
	e := 0
	for (1 << uint(e)) < l.DMax {
		e++
	}
	return l.K + e
}

// EstimateProvingTime is eq. (1) corrected by the calibration's fitted
// constants: the sum of PredictStages. On an unfitted calibration it is
// exactly the raw eq. (1) estimate (FFTs at both sizes, MSMs, lookup
// construction, and the constraint field ops over the extended domain);
// with fits present each stage term carries its trace-regressed gain and
// per-column-row overhead, so Algorithm 1 ranks layouts with the model
// that matched measured proves, not the raw closed form.
func (c *Calibration) EstimateProvingTime(l Layout) float64 {
	// Summed in pipeline order, not map order: float addition does not
	// commute in the last bit, and the estimate is stored in artifacts.
	p := c.PredictStages(l)
	var t float64
	for _, stage := range obs.StageNames() {
		t += p[stage]
	}
	return t
}

// permChunks returns the permutation grand-product chunk count, the perm
// term of eq. (2).
func (l Layout) permChunks() int {
	if l.NumPermCols == 0 {
		return 0
	}
	d := l.DMax
	if d < 3 {
		d = 3
	}
	return (l.NumPermCols + d - 3) / (d - 2)
}

// basePredictStages splits the raw eq. (1) estimate across the prover
// pipeline stages traced by internal/obs, attributing each term of
// eqs. (1)–(2) to the stage that performs it: base-domain FFTs and
// commitment MSMs to the stage that builds the column, extended-domain FFTs
// and constraint field ops to the quotient, and the MSM budget the model
// assigns beyond the per-stage commitments to the opening.
func (c *Calibration) basePredictStages(l Layout) obs.StagePrediction {
	fft := c.TimeFFT(l.K)
	// Every commitment runs on the table-warm fixed-base path (the per-key
	// table amortizes to free across a proof's dozens of commitments); only
	// the IPA opening's basis-folding MSMs are genuinely variable-base.
	msmC := c.TimeMSMFixed(l.K)
	chunks := l.permChunks()
	nFFT := float64(l.NumFFT())
	extN := float64(int64(1) << uint(l.ExtK()))

	p := obs.StagePrediction{}
	p[obs.StageCommit.String()] = float64(l.NumInstance+l.NumAdvice)*fft + float64(l.NumAdvice)*msmC
	p[obs.StageLookup.String()] = float64(3*l.NumLookups)*fft + float64(2*l.NumLookups)*msmC +
		float64(l.NumLookups)*c.TimeLookup(l.K)
	p[obs.StagePerm.String()] = float64(chunks) * (fft + msmC)
	p[obs.StageQuotient.String()] = (nFFT+1)*c.TimeFFT(l.ExtK()) + float64(l.DMax-1)*msmC +
		float64(l.ConstraintOps)*extN*c.FieldOp
	// Whatever MSM count eq. (1) budgets beyond the commitments attributed
	// above lands in the opening stage: quotient-witness commitments for
	// KZG (fixed-base), basis-folding MSMs for IPA (variable-base).
	open := float64(l.NumMSM()) - float64(l.NumAdvice+2*l.NumLookups+chunks+(l.DMax-1))
	if open < 0 {
		open = 0
	}
	if l.Backend == pcs.IPA {
		p[obs.StageOpen.String()] = open * c.TimeMSM(l.K)
	} else {
		p[obs.StageOpen.String()] = open * msmC
	}
	return p
}

// stageWork counts each stage's column-row units — the regressor behind
// StageFit.PerRow. It deliberately tracks the quantities the prover
// actually streams per stage: columns built and committed in commit, the
// f/t/sel/m/phi arrays per lookup, the permutation-column row loops, the
// extended-domain columns in quotient, and the opening-query evaluations.
func stageWork(l Layout) map[string]float64 {
	rows := float64(int64(1) << uint(l.K))
	extRows := float64(int64(1) << uint(l.ExtK()))
	chunks := l.permChunks()
	queries := l.NumAdvice + l.NumFixed + l.NumPermCols + 3*l.NumLookups + 2*chunks + (l.DMax - 1)
	return map[string]float64{
		obs.StageCommit.String():   float64(l.NumInstance+l.NumAdvice) * rows,
		obs.StageLookup.String():   float64(l.NumLookups) * rows,
		obs.StagePerm.String():     float64(l.NumPermCols+chunks) * rows,
		obs.StageQuotient.String(): float64(l.NumFFT()+l.DMax-1) * extRows,
		obs.StageOpen.String():     float64(queries) * rows,
	}
}

// PredictStages predicts per-stage proving time for a layout: the raw
// eq. (1) stage decomposition (basePredictStages), corrected by the
// calibration's fitted constants when present. The stage values sum exactly
// to EstimateProvingTime, so Report.CompareEstimate's "total" row validates
// the estimator end to end while the per-stage rows localize the error.
func (c *Calibration) PredictStages(l Layout) obs.StagePrediction {
	p := c.basePredictStages(l)
	if len(c.Fits) == 0 {
		return p
	}
	work := stageWork(l)
	for _, stage := range obs.StageNames() {
		f, ok := c.Fits[FitKey(l.Backend, stage)]
		if !ok {
			continue
		}
		p[stage] = f.Gain*p[stage] + f.PerRow*work[stage]
	}
	return p
}

// EstimateProofSize returns the proof size in bytes for a layout:
// commitments (advice + 2 per lookup + permutation chunks + quotient
// pieces), evaluations, and the per-point opening proofs.
func (l Layout) EstimateProofSize() int {
	chunks := l.permChunks()
	commits := l.NumAdvice + 2*l.NumLookups + chunks + (l.DMax - 1)
	// Evaluations: one per advice/fixed/sigma query plus argument polys.
	evals := l.NumAdvice + l.NumFixed + l.NumPermCols + 3*l.NumLookups + 2*chunks + (l.DMax - 1)
	points := 3 // x, omega*x, omega^u*x
	size := 32 * (commits + evals)
	switch l.Backend {
	case pcs.KZG:
		size += 32 * points
	case pcs.IPA:
		size += points * (32 * (2*l.K + 1))
	}
	return size
}
