package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/limbs"
)

// A nil trace is the disabled state: every method must be a no-op, not a
// panic, and the kernel-record hot path must not allocate.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	tr.Stage(StageCommit)
	tr.Finish()
	if tr.KernelSink() != nil {
		t.Fatal("nil trace returned non-nil kernel sink")
	}
	if tr.Report() != nil {
		t.Fatal("nil trace returned non-nil report")
	}

	var k *KernelCounters
	k.RecordMSM(1024)
	k.RecordFFT(1024)
	k.RecordBatchInvFlush()
	k.RecordOpen(time.Second)

	if n := testing.AllocsPerRun(100, func() {
		k.RecordMSM(4096)
		k.RecordFFT(4096)
		k.RecordBatchInvFlush()
		k.RecordOpen(time.Millisecond)
	}); n != 0 {
		t.Fatalf("disabled kernel recording allocates %v times per run", n)
	}
}

func TestSizeLog(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := sizeLog(c.n); got != c.want {
			t.Errorf("sizeLog(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestKernelHistogram(t *testing.T) {
	tr := NewTrace()
	k := tr.KernelSink()
	if k == nil {
		t.Fatal("armed trace returned nil kernel sink")
	}
	k.RecordMSM(1 << 10)
	k.RecordMSM(1 << 10)
	k.RecordMSM(1<<12 - 1) // still buckets to ceil(log2) = 12
	k.RecordFFT(1 << 8)
	k.RecordMSM(0)  // ignored
	k.RecordFFT(-4) // ignored
	k.RecordBatchInvFlush()
	k.RecordOpen(2 * time.Second)

	tr.Stage(StageCommit)
	tr.Finish()
	r := tr.Report()

	if r.MSMCount != 3 {
		t.Fatalf("MSMCount = %d, want 3", r.MSMCount)
	}
	want := []SizeCount{{Log2Size: 10, Count: 2}, {Log2Size: 12, Count: 1}}
	if len(r.MSMBySize) != len(want) {
		t.Fatalf("MSMBySize = %+v, want %+v", r.MSMBySize, want)
	}
	for i := range want {
		if r.MSMBySize[i] != want[i] {
			t.Fatalf("MSMBySize[%d] = %+v, want %+v", i, r.MSMBySize[i], want[i])
		}
	}
	if r.FFTCount != 1 || r.FFTBySize[0] != (SizeCount{Log2Size: 8, Count: 1}) {
		t.Fatalf("FFT histogram wrong: count=%d by_size=%+v", r.FFTCount, r.FFTBySize)
	}
	if r.BatchInvFlushes != 1 || r.Opens != 1 || r.OpenSeconds != 2 {
		t.Fatalf("counter snapshot wrong: flushes=%d opens=%d open_s=%v",
			r.BatchInvFlushes, r.Opens, r.OpenSeconds)
	}
	if r.FieldKernel != limbs.Kernel() || !strings.HasSuffix(r.FieldKernel, "+"+limbs.BlockKernel()) {
		t.Fatalf("FieldKernel = %q, want %q, naming the block kernel %q", r.FieldKernel, limbs.Kernel(), limbs.BlockKernel())
	}
}

// Stage transitions are contiguous: each Stage call closes the previous
// stage, so the per-stage times must sum to (approximately) the total.
func TestStageTimesSumToTotal(t *testing.T) {
	tr := NewTrace()
	for s := Stage(0); s < NumStages; s++ {
		tr.Stage(s)
		time.Sleep(time.Millisecond)
	}
	tr.Finish()
	r := tr.Report()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, st := range r.Stages {
		sum += st.Seconds
	}
	if diff := math.Abs(sum - r.TotalSeconds); diff > 1e-6 {
		t.Fatalf("stage sum %v vs total %v (diff %v)", sum, r.TotalSeconds, diff)
	}
	// Finish is idempotent: a second call must not move the total.
	tr.Finish()
	if got := tr.Report().TotalSeconds; got != r.TotalSeconds {
		t.Fatalf("second Finish changed total: %v -> %v", r.TotalSeconds, got)
	}
}

func TestReportAlwaysHasAllStages(t *testing.T) {
	tr := NewTrace()
	tr.Stage(StageCommit) // only one stage ever entered
	tr.Finish()
	r := tr.Report()
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	names := StageNames()
	if len(r.Stages) != len(names) {
		t.Fatalf("got %d stages, want %d", len(r.Stages), len(names))
	}
	for i, st := range r.Stages {
		if st.Stage != names[i] {
			t.Fatalf("stage %d = %q, want %q", i, st.Stage, names[i])
		}
	}
}

func TestValidateRejects(t *testing.T) {
	mk := func() *Report {
		tr := NewTrace()
		tr.Stage(StageCommit)
		time.Sleep(time.Millisecond)
		tr.Finish()
		return tr.Report()
	}
	if err := (*Report)(nil).Validate(); err == nil {
		t.Fatal("nil report validated")
	}
	r := mk()
	r.Stages = r.Stages[:3]
	if err := r.Validate(); err == nil {
		t.Fatal("truncated stage list validated")
	}
	r = mk()
	r.Stages[0], r.Stages[1] = r.Stages[1], r.Stages[0]
	if err := r.Validate(); err == nil {
		t.Fatal("out-of-order stages validated")
	}
	r = mk()
	r.Stages[2].Seconds = -1
	if err := r.Validate(); err == nil {
		t.Fatal("negative stage time validated")
	}
	r = mk()
	r.TotalSeconds = 0
	if err := r.Validate(); err == nil {
		t.Fatal("zero total validated")
	}
}

func TestCompareEstimate(t *testing.T) {
	tr := NewTrace()
	tr.Stage(StageCommit)
	time.Sleep(2 * time.Millisecond)
	tr.Finish()
	r := tr.Report()
	// Hand-set measured times for exact arithmetic.
	for i := range r.Stages {
		r.Stages[i].Seconds = 0
	}
	r.Stages[0].Seconds = 2.0 // commit
	r.Stages[3].Seconds = 4.0 // quotient

	pred := StagePrediction{"commit": 1.0, "quotient": 6.0, "setup": 0.5}
	rows := r.CompareEstimate(pred)

	// 5 pipeline stages + 1 prediction-only stage + total.
	if len(rows) != int(NumStages)+2 {
		t.Fatalf("got %d rows: %+v", len(rows), rows)
	}
	byStage := map[string]StageComparison{}
	for _, row := range rows {
		byStage[row.Stage] = row
	}
	c := byStage["commit"]
	if c.PredictedSeconds != 1 || c.MeasuredSeconds != 2 || c.RelErr != -0.5 {
		t.Fatalf("commit row = %+v", c)
	}
	q := byStage["quotient"]
	if q.PredictedSeconds != 6 || q.MeasuredSeconds != 4 || q.RelErr != 0.5 {
		t.Fatalf("quotient row = %+v", q)
	}
	// Prediction-only stage appears with zero measurement and zero rel_err.
	s := byStage["setup"]
	if s.PredictedSeconds != 0.5 || s.MeasuredSeconds != 0 || s.RelErr != 0 {
		t.Fatalf("setup row = %+v", s)
	}
	// Measured-but-unpredicted stage reports rel_err -1 (model missed it).
	lk := byStage["lookup"]
	if lk.PredictedSeconds != 0 || lk.RelErr != 0 { // measured is 0 here
		t.Fatalf("lookup row = %+v", lk)
	}
	tot := rows[len(rows)-1]
	if tot.Stage != "total" || tot.PredictedSeconds != 7.5 || tot.MeasuredSeconds != 6 || tot.RelErr != 0.25 {
		t.Fatalf("total row = %+v", tot)
	}
	if rows[0].Stage != "commit" || rows[1].Stage != "lookup" {
		t.Fatalf("rows not in execution order: %v %v", rows[0].Stage, rows[1].Stage)
	}

	if (*Report)(nil).CompareEstimate(pred) != nil {
		t.Fatal("nil report produced comparison rows")
	}
}

// The report is the zkml --trace payload; it must round-trip through JSON.
func TestReportJSONRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.KernelSink().RecordMSM(512)
	tr.Stage(StageCommit)
	time.Sleep(time.Millisecond)
	tr.Finish()
	r := tr.Report()

	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.MSMCount != 1 || back.MSMBySize[0].Log2Size != 9 {
		t.Fatalf("kernel counters lost in round trip: %+v", back)
	}
}
