// Package obs is the proving pipeline's tracing/metrics layer (DESIGN.md
// §11). A Trace collects per-stage wall time and lock-free kernel counters
// for one Prove call; a Report is the immutable JSON-serializable result,
// and CompareEstimate lines the measured stage times up against the cost
// model's predictions (paper §7.4, eqs. (1)–(2)) so the estimator can be
// validated per stage instead of trusted end to end.
//
// The package depends only on the standard library so the kernel packages
// (curve, poly, pcs) can record into a *KernelCounters without import
// cycles. Every method is nil-safe: a nil *Trace or *KernelCounters is the
// disabled state, and the disabled path is a single pointer check — no
// locks, no allocation.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Stage identifies one prover pipeline stage, in execution order.
type Stage int

// The prover pipeline stages. Every Prove call passes through all five in
// order (a circuit without copy constraints still reports a zero-duration
// permutation stage), so report consumers can rely on all of them being
// present.
const (
	// StageCommit covers witness synthesis per phase, blinding, the
	// per-column IFFTs, and the instance/advice commitments.
	StageCommit Stage = iota
	// StageLookup covers lookup input/table compression, multiplicity
	// counting, and the m/phi commitments.
	StageLookup
	// StagePerm covers the permutation grand products and z commitments.
	StagePerm
	// StageQuotient covers the extended-coset FFTs, the constraint
	// evaluation over the coset, and the quotient-piece commitments.
	StageQuotient
	// StageOpen covers the evaluations at x and the batched multi-point
	// opening proofs.
	StageOpen

	numStages
)

var stageNames = [numStages]string{"commit", "lookup", "permutation", "quotient", "open"}

// String returns the stage's wire name (used as the JSON key).
func (s Stage) String() string {
	if s < 0 || s >= numStages {
		return fmt.Sprintf("stage(%d)", int(s))
	}
	return stageNames[s]
}

// StageNames lists every pipeline stage name in execution order.
func StageNames() []string {
	return append([]string(nil), stageNames[:]...)
}

// maxSizeLog bounds the per-size kernel histograms; sizes are bucketed by
// ceil(log2(n)), which cannot exceed 63 for an int count.
const maxSizeLog = 64

// KernelCounters is the lock-free counter block the kernels record into
// while a trace is armed. All fields are atomics so concurrent worker-pool
// chunks (parallel MSM windows, NTT butterflies, opening MSMs) can record
// without coordination; a nil receiver is the disabled state.
type KernelCounters struct {
	// MSM / FFT count operations bucketed by ceil(log2(size)).
	MSM [maxSizeLog]atomic.Int64
	FFT [maxSizeLog]atomic.Int64
	// FixedMSM counts the subset of MSMs served by a precomputed fixed-base
	// table (pcs commitment tables), bucketed like MSM. Every fixed-base MSM
	// is also counted in MSM, so MSM remains the total.
	FixedMSM [maxSizeLog]atomic.Int64
	// GLVSplits counts scalars decomposed via the GLV endomorphism across
	// all MSM paths (variable-base and fixed-base).
	GLVSplits atomic.Int64
	// TableBuilds counts fixed-base commitment tables built while the trace
	// was armed and LagrangeDerived the Lagrange-basis SRS points derived
	// (pcs set-up work; both are zero on a warm prove).
	TableBuilds     atomic.Int64
	LagrangeDerived atomic.Int64
	// BatchInvFlushes counts batch-affine MSM inversion flushes (one
	// shared field inversion per flush; see curve's batchAdder).
	BatchInvFlushes atomic.Int64
	// Opens / OpenNs count PCS opening-argument invocations and the wall
	// time spent inside them (KZG quotient witness, IPA folding rounds).
	Opens  atomic.Int64
	OpenNs atomic.Int64
}

// sizeLog buckets a kernel operand size: ceil(log2(n)).
func sizeLog(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// RecordMSM counts one n-point multi-scalar multiplication.
func (k *KernelCounters) RecordMSM(n int) {
	if k == nil || n <= 0 {
		return
	}
	k.MSM[sizeLog(n)].Add(1)
}

// RecordFFT counts one size-n transform (forward, inverse, or coset).
func (k *KernelCounters) RecordFFT(n int) {
	if k == nil || n <= 0 {
		return
	}
	k.FFT[sizeLog(n)].Add(1)
}

// RecordFixedBaseMSM counts one n-point MSM served by a fixed-base table
// (in addition to RecordMSM, which the table path also calls).
func (k *KernelCounters) RecordFixedBaseMSM(n int) {
	if k == nil || n <= 0 {
		return
	}
	k.FixedMSM[sizeLog(n)].Add(1)
}

// RecordGLVSplit counts n scalars decomposed via the GLV endomorphism.
func (k *KernelCounters) RecordGLVSplit(n int) {
	if k == nil || n <= 0 {
		return
	}
	k.GLVSplits.Add(int64(n))
}

// RecordTableBuild counts one fixed-base commitment-table construction.
func (k *KernelCounters) RecordTableBuild() {
	if k == nil {
		return
	}
	k.TableBuilds.Add(1)
}

// RecordLagrangeDerive counts n Lagrange-basis SRS points derived.
func (k *KernelCounters) RecordLagrangeDerive(n int) {
	if k == nil {
		return
	}
	k.LagrangeDerived.Add(int64(n))
}

// RecordBatchInvFlush counts one batch-affine bucket inversion flush.
func (k *KernelCounters) RecordBatchInvFlush() {
	if k == nil {
		return
	}
	k.BatchInvFlushes.Add(1)
}

// RecordOpen counts one PCS opening argument and its duration.
func (k *KernelCounters) RecordOpen(d time.Duration) {
	if k == nil {
		return
	}
	k.Opens.Add(1)
	k.OpenNs.Add(d.Nanoseconds())
}

// Trace accumulates stage timings and kernel counters for one Prove call.
// Stage transitions must happen on the proving goroutine (they are not
// synchronized); the Kernel block may be written from any worker. The zero
// value is ready to use, and all methods are nil-safe so an untraced Prove
// pays only pointer checks.
type Trace struct {
	Kernel KernelCounters

	start    time.Time
	active   bool
	cur      Stage
	curStart time.Time
	stageNs  [numStages]int64
	totalNs  int64

	quotientOps, quotientVarying int
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// KernelSink returns the counter block kernels should record into, or nil
// when the trace itself is nil (so disarmed kernels keep their plain
// nil check).
func (t *Trace) KernelSink() *KernelCounters {
	if t == nil {
		return nil
	}
	return &t.Kernel
}

// Stage closes the currently open stage (if any) and opens s. The first
// call also starts the trace's total clock.
func (t *Trace) Stage(s Stage) {
	if t == nil {
		return
	}
	now := time.Now()
	if !t.active {
		if t.start.IsZero() {
			t.start = now
		}
	} else {
		t.stageNs[t.cur] += now.Sub(t.curStart).Nanoseconds()
	}
	t.cur, t.curStart, t.active = s, now, true
}

// Finish closes the open stage and the total clock. Safe to call more than
// once (e.g. from a deferred call on an error path).
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	if t.active {
		t.stageNs[t.cur] += now.Sub(t.curStart).Nanoseconds()
		t.active = false
	}
	if !t.start.IsZero() && t.totalNs == 0 {
		t.totalNs = now.Sub(t.start).Nanoseconds()
	}
}

// RecordProgram notes the size of the compiled quotient program the prove
// evaluates: ops in all, and the row-varying ops it runs per coset row.
// Call on the proving goroutine.
func (t *Trace) RecordProgram(ops, varying int) {
	if t == nil {
		return
	}
	t.quotientOps, t.quotientVarying = ops, varying
}

// StageTiming is one stage's measured wall time.
type StageTiming struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// SizeCount is one kernel-histogram bucket: Count operations whose size n
// satisfied ceil(log2(n)) == Log2Size.
type SizeCount struct {
	Log2Size int   `json:"log2_size"`
	Count    int64 `json:"count"`
}

// Report is the immutable result of a traced Prove: per-stage wall times
// (execution order, every pipeline stage present) plus the kernel counter
// snapshot. It serializes directly to JSON (the `zkml --trace` payload).
type Report struct {
	TotalSeconds    float64       `json:"total_seconds"`
	Stages          []StageTiming `json:"stages"`
	MSMCount        int64         `json:"msm_count"`
	MSMBySize       []SizeCount   `json:"msm_by_size"`
	FixedMSMCount   int64         `json:"fixed_msm_count,omitempty"`
	FixedMSMBySize  []SizeCount   `json:"fixed_msm_by_size,omitempty"`
	GLVSplits       int64         `json:"glv_splits,omitempty"`
	TableBuilds     int64         `json:"commit_table_builds,omitempty"`
	LagrangeDerived int64         `json:"lagrange_points_derived,omitempty"`
	FFTCount        int64         `json:"fft_count"`
	FFTBySize       []SizeCount   `json:"fft_by_size"`
	BatchInvFlushes int64         `json:"batch_inv_flushes"`
	Opens           int64         `json:"opens"`
	OpenSeconds     float64       `json:"open_seconds"`
	// QuotientOps / QuotientVaryingOps size the quotient program: ops in
	// all, and the ops evaluated per extended-coset row.
	QuotientOps        int `json:"quotient_ops,omitempty"`
	QuotientVaryingOps int `json:"quotient_varying_ops,omitempty"`
}

// histogram snapshots a per-size counter array into sorted buckets.
func histogram(a *[maxSizeLog]atomic.Int64) (total int64, out []SizeCount) {
	for i := range a {
		if c := a[i].Load(); c > 0 {
			total += c
			out = append(out, SizeCount{Log2Size: i, Count: c})
		}
	}
	return total, out
}

// Report snapshots the trace. Call after Finish (ProveTraced does both);
// a nil trace yields a nil report.
func (t *Trace) Report() *Report {
	if t == nil {
		return nil
	}
	r := &Report{TotalSeconds: float64(t.totalNs) / 1e9}
	for s := Stage(0); s < numStages; s++ {
		r.Stages = append(r.Stages, StageTiming{Stage: s.String(), Seconds: float64(t.stageNs[s]) / 1e9})
	}
	r.MSMCount, r.MSMBySize = histogram(&t.Kernel.MSM)
	r.FixedMSMCount, r.FixedMSMBySize = histogram(&t.Kernel.FixedMSM)
	r.GLVSplits = t.Kernel.GLVSplits.Load()
	r.TableBuilds = t.Kernel.TableBuilds.Load()
	r.LagrangeDerived = t.Kernel.LagrangeDerived.Load()
	r.FFTCount, r.FFTBySize = histogram(&t.Kernel.FFT)
	r.BatchInvFlushes = t.Kernel.BatchInvFlushes.Load()
	r.Opens = t.Kernel.Opens.Load()
	r.OpenSeconds = float64(t.Kernel.OpenNs.Load()) / 1e9
	r.QuotientOps, r.QuotientVaryingOps = t.quotientOps, t.quotientVarying
	return r
}

// StageSeconds returns the measured wall time for the named stage, or 0
// when the report carries no such stage. This is the measurement side of
// the cost-model fitting loop (costmodel.FitFromSamples).
func (r *Report) StageSeconds(name string) float64 {
	if r == nil {
		return 0
	}
	for _, st := range r.Stages {
		if st.Stage == name {
			return st.Seconds
		}
	}
	return 0
}

// Validate checks the structural invariants report consumers rely on:
// every pipeline stage present exactly once, in order, with non-negative
// times, and a positive total. The CI trace smoke-run calls this on the
// re-parsed JSON.
func (r *Report) Validate() error {
	if r == nil {
		return fmt.Errorf("obs: nil report")
	}
	if len(r.Stages) != int(numStages) {
		return fmt.Errorf("obs: report has %d stages, want %d", len(r.Stages), numStages)
	}
	for i, st := range r.Stages {
		if st.Stage != stageNames[i] {
			return fmt.Errorf("obs: stage %d is %q, want %q", i, st.Stage, stageNames[i])
		}
		if st.Seconds < 0 {
			return fmt.Errorf("obs: stage %q has negative time %v", st.Stage, st.Seconds)
		}
	}
	if r.TotalSeconds <= 0 {
		return fmt.Errorf("obs: non-positive total %v", r.TotalSeconds)
	}
	return nil
}

// StagePrediction maps stage name -> predicted seconds. The cost model
// builds one with costmodel.(*Calibration).PredictStages; obs only
// consumes it, keeping this package dependency-free.
type StagePrediction map[string]float64

// StageComparison is one row of predicted-vs-measured output.
type StageComparison struct {
	Stage            string  `json:"stage"`
	PredictedSeconds float64 `json:"predicted_s"`
	MeasuredSeconds  float64 `json:"measured_s"`
	// RelErr is (predicted - measured) / measured: positive means the
	// model overestimates. Zero when nothing was measured.
	RelErr float64 `json:"rel_err"`
}

// CompareEstimate lines the report's measured stage times up against a
// cost-model prediction, one row per pipeline stage in execution order
// plus a final "total" row. Predicted stages absent from the report (and
// vice versa) still get a row, so systematic model/pipeline mismatches are
// visible rather than silently dropped.
func (r *Report) CompareEstimate(pred StagePrediction) []StageComparison {
	if r == nil {
		return nil
	}
	measured := map[string]float64{}
	order := make([]string, 0, len(r.Stages)+1)
	for _, st := range r.Stages {
		measured[st.Stage] = st.Seconds
		order = append(order, st.Stage)
	}
	// Stages only the prediction knows about, appended in sorted order for
	// deterministic output.
	var extra []string
	for name := range pred {
		if _, ok := measured[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	order = append(order, extra...)

	out := make([]StageComparison, 0, len(order)+1)
	var predTotal, measTotal float64
	for _, name := range order {
		p, m := pred[name], measured[name]
		predTotal += p
		measTotal += m
		out = append(out, StageComparison{Stage: name, PredictedSeconds: p, MeasuredSeconds: m, RelErr: relErr(p, m)})
	}
	out = append(out, StageComparison{Stage: "total", PredictedSeconds: predTotal, MeasuredSeconds: measTotal, RelErr: relErr(predTotal, measTotal)})
	return out
}

// TotalRow returns the "total" row of a CompareEstimate result, reporting
// whether one was present. CI gates (zkml trace-check -max-rel-err) key off
// this row rather than the noisier per-stage ones.
func TotalRow(cmp []StageComparison) (StageComparison, bool) {
	for _, c := range cmp {
		if c.Stage == "total" {
			return c, true
		}
	}
	return StageComparison{}, false
}

func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	return (pred - meas) / meas
}
