package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected cut points are what Python's statistics.quantiles(v, n=4)
// prints for the same lists: the driver computes spreads with it, so the
// harness must cut where it cuts.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 3.1, 2.9, 3.0, 2.7, 3.4, 2.8}, 2.7, 2.9, 3.1},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if q1, med, q3 := quartiles(nil); q1 != 0 || med != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v, %v, %v; want zeros", q1, med, q3)
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	quartiles(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("quartiles sorted its argument in place: %v", in)
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailPercentileEligibility(t *testing.T) {
	cases := []struct {
		n, want int
		ok      bool
	}{{1, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true}, {1000, 99, true}}
	for _, c := range cases {
		if got, ok := tailPercentile(c.n); got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := summarize(samples)
	if s.Tail != 90 || s.TailValue != 90 {
		t.Errorf("summarize of 1..100 reports p%d = %v; want p90 = 90", s.Tail, s.TailValue)
	}
	if s := summarize(samples[:99]); s.Tail != 0 {
		t.Errorf("summarize of 99 samples reports p%d; want none", s.Tail)
	}
}

func TestSummarizeSpread(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4})
	if !near(s.Spread, (3.75-1.25)/2.5) || s.N != 4 {
		t.Errorf("summarize spread = %v, n = %d; want 1.0, 4", s.Spread, s.N)
	}
	if s := summarize([]float64{0, 0, 0}); s.Spread != 0 {
		t.Errorf("spread of a zero median = %v; want 0", s.Spread)
	}
}

func TestStealShareFromProcStatLines(t *testing.T) {
	before := parseCPULine("cpu  100 0 50 800 10 0 5 35 0 0")
	after := parseCPULine("cpu  150 0 70 1500 10 0 5 65 7 0")
	if before.total != 1000 || before.steal != 35 {
		t.Fatalf("parsed %+v; want total 1000, steal 35 (guest time is inside user, so not added)", before)
	}
	if got, want := stealShare(before, after), 30.0/800.0; !near(got, want) {
		t.Errorf("stealShare = %v; want %v", got, want)
	}
	if got := stealShare(after, after); got != 0 {
		t.Errorf("stealShare over no time = %v; want 0", got)
	}
	if c := parseCPULine("cpu0 1 2 3"); c != (cpuTimes{}) {
		t.Errorf("a per-core or short line parsed as %+v; want zero", c)
	}
}
