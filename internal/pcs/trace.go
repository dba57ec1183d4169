package pcs

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// kernelTrace is the armed counter sink for opening arguments and for the
// set-up work a commit can trigger (table builds, Lagrange-basis
// derivations) (DESIGN.md §11). The disabled state is a nil pointer, so
// untraced calls pay one atomic pointer load — no locks, no allocation.
var kernelTrace atomic.Pointer[obs.KernelCounters]

// SetKernelTrace arms (k != nil) or disarms (k == nil) opening-path tracing
// and returns the previous sink so callers can restore it. The sink is
// process-wide: concurrent traced proves would interleave their counters.
func SetKernelTrace(k *obs.KernelCounters) *obs.KernelCounters {
	return kernelTrace.Swap(k)
}

// recordOpen times one Open call into the armed sink; the returned func is
// a no-op when tracing is disabled.
func recordOpen() func() {
	t := kernelTrace.Load()
	if t == nil {
		return func() {}
	}
	start := time.Now() //zkml:allow(determinism) — timing-only tracing; never feeds proof bytes
	return func() { t.RecordOpen(time.Since(start)) }
}
