// Package parallel provides the bounded worker pool behind every proving
// hot path: MSMs (curve), NTTs (poly), SRS growth (pcs), and the
// embarrassingly-parallel prover stages (plonkish). The paper's prover cost
// is dominated by FFTs and MSMs (eqs. (1),(2)); those kernels split cleanly
// into independent chunks, so the whole prover scales with cores as long as
// transcript absorption stays sequential (see DESIGN.md §8).
//
// The pool is a process-wide token semaphore: a For/Range/Map call runs on
// up to Workers() goroutines (counting the calling one), and nested calls —
// e.g. a per-column IFFT inside a per-phase column fan-out — degrade
// gracefully to inline execution instead of oversubscribing or deadlocking,
// because workers acquire tokens with a non-blocking try. Range splits its
// span into fixed chunks; For and Map hand out indices on demand, so items
// of uneven cost keep every worker busy until the last one is claimed, and
// Idle tells a kernel how many workers it could split across right now.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pinned is the configured worker count; 0 means "use GOMAXPROCS".
var pinned atomic.Int32

// sem bounds the number of extra goroutines (beyond callers) running across
// all concurrent For/Range/Map calls. Rebuilt when the worker count changes;
// in-flight workers release into the channel they acquired from, so a
// rebuild never strands a token.
var sem atomic.Pointer[chan struct{}]

// Workers returns the current worker bound: the pinned value if set,
// otherwise GOMAXPROCS.
func Workers() int {
	if n := pinned.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers pins the worker bound. n <= 0 restores the GOMAXPROCS default.
// Safe to call at any time; calls already in flight keep their old bound.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	pinned.Store(int32(n))
	c := make(chan struct{}, extraFor(Workers()))
	sem.Store(&c)
}

func extraFor(workers int) int {
	if workers <= 1 {
		return 0
	}
	return workers - 1
}

// tokens returns the current semaphore, rebuilding it if GOMAXPROCS (or the
// pin) changed since the last call.
func tokens() chan struct{} {
	want := extraFor(Workers())
	if p := sem.Load(); p != nil && cap(*p) == want {
		return *p
	}
	c := make(chan struct{}, want)
	sem.Store(&c)
	return c
}

// Range splits [0, n) into up to Workers() contiguous chunks and runs fn on
// each, returning when all chunks are done. The chunks are scheduled as For
// schedules its items. Chunk boundaries depend only on n and the worker
// bound, so callers may precompute per-chunk state. A panic in any chunk is
// re-raised in the caller after all chunks finish.
func Range(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := min(Workers(), n)
	size := (n + chunks - 1) / chunks
	For((n+size-1)/size, func(j int) {
		lo := j * size
		fn(lo, min(lo+size, n))
	})
}

// Idle returns how many pool workers are free at this moment: the tokens a
// For, Range or Map could take now, in [0, Workers()−1]. It is a snapshot —
// other calls may take or return tokens right after — so a kernel uses it
// only to decide how finely to split work that is exact at any split.
func Idle() int {
	pool := tokens()
	return cap(pool) - len(pool)
}

// For runs fn for every i in [0, n) and returns when all are done. The
// calling goroutine and up to Workers()−1 pooled ones (as many as tokens are
// free) claim indices one at a time from a shared counter, so a worker that
// finishes a cheap item takes the next instead of idling beside a long one.
// A panic in any item is re-raised in the caller after every other item has
// run.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	var firstPanic atomic.Pointer[any]
	claim := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			runItem(fn, i, &firstPanic)
		}
	}
	pool := tokens()
	var wg sync.WaitGroup
spawn:
	for h := min(n, Workers()) - 1; h > 0; h-- {
		select {
		case pool <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-pool
					wg.Done()
				}()
				claim()
			}()
		default:
			break spawn // the pool is saturated
		}
	}
	claim()
	wg.Wait()
	if p := firstPanic.Load(); p != nil {
		panic(*p)
	}
}

// runItem runs fn(i), recording its panic, if any, as the call's first.
func runItem(fn func(i int), i int, firstPanic *atomic.Pointer[any]) {
	defer func() {
		if r := recover(); r != nil {
			firstPanic.CompareAndSwap(nil, &r)
		}
	}()
	fn(i)
}

// Map runs fn for every i in [0, n), scheduled as in For, and collects the
// results in order.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// Scratch hands out reusable slices to concurrent workers, so a kernel that
// runs many times (an MSM's scalar splits, a commit's row differences) does
// not allocate its working buffer on every call. Get returns a buffer no
// other goroutine holds; Put gives it back. Buffers the garbage collector
// reclaims between calls are allocated anew. The zero value is ready to use.
type Scratch[T any] struct{ pool sync.Pool }

// Get returns a buffer of length n. Its contents are unspecified: the
// caller overwrites what it reads.
func (s *Scratch[T]) Get(n int) *[]T {
	b, _ := s.pool.Get().(*[]T)
	if b == nil || cap(*b) < n {
		b = new([]T)
		*b = make([]T, n)
	}
	*b = (*b)[:n]
	return b
}

// Put returns a buffer from Get for reuse. The caller must not touch it
// afterwards.
func (s *Scratch[T]) Put(b *[]T) { s.pool.Put(b) }
