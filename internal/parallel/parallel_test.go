package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 64} {
		SetWorkers(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
	SetWorkers(0)
}

func TestRangeChunksPartition(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	n := 103
	covered := make([]int32, n)
	Range(n, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestMapOrdersResults(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	out := Map(100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestNestedCallsComplete(t *testing.T) {
	// Nested Range inside For must not deadlock: inner calls fall back to
	// inline execution when the pool is exhausted.
	SetWorkers(2)
	defer SetWorkers(0)
	var total atomic.Int64
	For(10, func(i int) {
		Range(10, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
	})
	if total.Load() != 100 {
		t.Fatalf("nested total = %d, want 100", total.Load())
	}
}

func TestPanicPropagates(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in worker was swallowed")
		}
	}()
	For(100, func(i int) {
		if i == 57 {
			panic("boom")
		}
	})
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	SetWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	SetWorkers(-5)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d after reset, want %d", got, want)
	}
}

// claimShapes runs fn(n, visit) the ways the prover calls For and Map: from
// one caller, nested inside another For, and from two callers at once (two
// proves in flight). visit(i) must be called once per index of each
// logical call; each shape checks that.
func claimShapes(t *testing.T, run func(n int, visit func(i int))) {
	t.Helper()
	const n = 97
	check := func(shape string, hits []int32) {
		t.Helper()
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d %s: index %d visited %d times", Workers(), shape, i%n, h)
			}
		}
	}

	hits := make([]int32, n)
	run(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	check("single", hits)

	const outer = 5
	hits = make([]int32, outer*n)
	For(outer, func(o int) {
		run(n, func(i int) { atomic.AddInt32(&hits[o*n+i], 1) })
	})
	check("nested", hits)

	hits = make([]int32, 2*n)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run(n, func(i int) { atomic.AddInt32(&hits[c*n+i], 1) })
		}(c)
	}
	wg.Wait()
	check("concurrent", hits)
}

// TestForAndMapClaimEachIndexOnce checks that For and Map, which hand out
// indices on demand, visit every index exactly once — alone, nested and
// from concurrent callers — and that Map keeps its results in order.
func TestForAndMapClaimEachIndexOnce(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		claimShapes(t, func(n int, visit func(i int)) { For(n, visit) })
		claimShapes(t, func(n int, visit func(i int)) {
			out := Map(n, func(i int) int {
				visit(i)
				return 3 * i
			})
			for i, v := range out {
				if v != 3*i {
					t.Errorf("workers=%d: Map out[%d] = %d, want %d", workers, i, v, 3*i)
				}
			}
		})
	}
}

// TestForPanicAfterEveryItem panics in one item and requires every other
// item to have run before the panic reaches the caller, at each worker
// count.
func TestForPanicAfterEveryItem(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		const n = 64
		var ran atomic.Int32
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want the item's panic", workers, r)
				}
				if got := ran.Load(); got != n-1 {
					t.Fatalf("workers=%d: %d of %d other items ran before the panic was re-raised", workers, got, n-1)
				}
			}()
			For(n, func(i int) {
				if i == 3 {
					panic("boom")
				}
				ran.Add(1)
			})
		}()
	}
}

// TestIdleWithinBounds checks Idle against the pool: every worker free
// when nothing runs, none while a For holds them all, and always within
// [0, Workers()−1].
func TestIdleWithinBounds(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		if got := Idle(); got != workers-1 {
			t.Fatalf("workers=%d: Idle() = %d with nothing running, want %d", workers, got, workers-1)
		}
		started := make(chan struct{}, workers)
		done := make(chan struct{})
		busy := -1
		For(workers, func(i int) {
			if i > 0 {
				started <- struct{}{}
				<-done
				return
			}
			for j := 1; j < workers; j++ {
				<-started
			}
			busy = Idle()
			close(done)
		})
		if busy != 0 {
			t.Fatalf("workers=%d: Idle() = %d while every worker runs an item, want 0", workers, busy)
		}
		For(200, func(int) {
			if n := Idle(); n < 0 || n > workers-1 {
				t.Errorf("workers=%d: Idle() = %d during a For, outside [0, %d]", workers, n, workers-1)
			}
		})
	}
}
