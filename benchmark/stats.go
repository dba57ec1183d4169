package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// summary is how every timed quantity is reported: the median, the
// quartiles, the sample count, and — only once at least ten samples lie
// beyond it — a tail percentile.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Spread is (q3-q1)/median, the run-to-run noise the noise guard and
	// compare hold against a metric's bound.
	Spread float64 `json:"spread"`
	// Tail is the percentile tailPercentile allows for N, 0 when none.
	Tail      int     `json:"tail_percentile,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method), so a
// spread computed here equals the one the driver computes from the same
// values. One sample is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// tailPercentile names the highest percentile with at least ten samples
// beyond it: 90 from 100 samples, 99 from 1000, none below 100.
func tailPercentile(n int) (int, bool) {
	switch {
	case n >= 1000:
		return 99, true
	case n >= 100:
		return 90, true
	}
	return 0, false
}

// percentile is the nearest-rank percentile of values.
func percentile(values []float64, p int) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := (len(s)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func summarize(values []float64) summary {
	q1, med, q3 := quartiles(values)
	s := summary{Median: med, Q1: q1, Q3: q3, N: len(values)}
	if med != 0 {
		s.Spread = (q3 - q1) / med
	}
	if p, ok := tailPercentile(len(values)); ok {
		s.Tail, s.TailValue = p, percentile(values, p)
	}
	return s
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes returns the zero value where /proc/stat is missing, so the
// steal share reads 0 off Linux instead of failing the run.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPULine(line)
}

// parseCPULine reads "cpu user nice system idle iowait irq softirq steal
// guest guest_nice". Guest time is already inside user, so only the first
// eight fields add up to the total.
func parseCPULine(line string) cpuTimes {
	f := strings.Fields(line)
	var c cpuTimes
	if len(f) < 9 || f[0] != "cpu" {
		return c
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealShare is the share of CPU time between two readings that the
// hypervisor gave to someone else: the noisy-neighbour signal.
func stealShare(before, after cpuTimes) float64 {
	if after.total <= before.total {
		return 0
	}
	return float64(after.steal-before.steal) / float64(after.total-before.total)
}

// peakRSSMB reads VmHWM of a process, its peak resident set, in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("benchmark: parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("benchmark: no VmHWM line for pid %d", pid)
}
