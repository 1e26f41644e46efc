package fleet

import (
	"fmt"
	"runtime"
	"testing"
)

// TestPool pins the worker pool's contract: every vehicle runs once per
// call in contiguous blocks, the first error by vehicle index wins, and a
// panic on any worker is re-raised on the caller.
func TestPool(t *testing.T) {
	const n = 10
	p := newPool(3, n)
	defer p.close()

	visits := make([]int, n)
	if err := p.each(func(i int) error { visits[i]++; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range visits {
		if v != 1 {
			t.Errorf("vehicle %d ran %d times", i, v)
		}
	}

	err := p.each(func(i int) error {
		if i == 3 || i == 8 {
			return fmt.Errorf("vehicle %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "vehicle 3" {
		t.Errorf("each returned %v, want vehicle 3's error", err)
	}

	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the worker's panic", r)
		}
	}()
	_ = p.each(func(i int) error {
		if i == n-1 { // the last block runs on a worker goroutine
			panic("boom")
		}
		return nil
	})
	t.Error("each returned after a worker panicked")
}

// TestWorkers pins the parallel runner's worker count: one worker per
// block of at least minBlock vehicles, capped by GOMAXPROCS, never zero.
func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {minBlock - 1, 1}, {2*minBlock - 1, 1}, {2 * minBlock, 2}, {3 * minBlock, 3}, {100 * minBlock, 4},
	} {
		p, err := newPlan(Config{N: tc.n})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.workers(); got != tc.want {
			t.Errorf("N=%d: %d workers at GOMAXPROCS 4, want %d", tc.n, got, tc.want)
		}
	}
}
