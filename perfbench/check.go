package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"hcperf/internal/stats"
)

// tally counts operations and the ones that failed: errored, were refused,
// or returned an output that failed its correctness check.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string // the first few failure messages, for the log
}

// op records one attempted operation; a non-nil err marks it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.first) < 5 {
			t.first = append(t.first, err.Error())
		}
	}
}

func (t *tally) add(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	t.first = append(t.first, o.first...)
}

func (t *tally) report(w io.Writer) {
	for _, m := range t.first {
		fmt.Fprintf(w, "perfbench: failed: %s\n", m)
	}
}

// errRefused marks a request the server turned away (429, 503, other 5xx).
var errRefused = errors.New("refused")

// checkSubmit checks a POST /v1/runs answer. A submission the workload
// expects to execute must be accepted (202) as a miss; one it expects to be
// served from the store must answer 200 from the memory or disk tier.
func checkSubmit(code int, cache string, wantHit bool) error {
	switch {
	case code == http.StatusTooManyRequests || code >= 500:
		return fmt.Errorf("%w: status %d", errRefused, code)
	case !wantHit && (code != http.StatusAccepted || cache != "miss"):
		return fmt.Errorf("cold submission answered %d with X-HCPerf-Cache %q, want 202 miss", code, cache)
	case wantHit && (code != http.StatusOK || (cache != "memory" && cache != "disk")):
		return fmt.Errorf("hot submission answered %d with X-HCPerf-Cache %q, want 200 memory|disk", code, cache)
	}
	return nil
}

// checkDigest compares a report digest with the one the check expects.
func checkDigest(what, got, want string) error {
	if got == "" || got != want {
		return fmt.Errorf("%s: report digest %q, want %q", what, got, want)
	}
	return nil
}

// grew reports whether samples taken in window order rose by more than tol
// from the window's first third to its last: the sign of a backlog (or a
// generator falling behind) that would make the run's latencies meaningless.
func grew(xs []float64, tol float64) bool {
	n := len(xs) / 3
	if n == 0 {
		return false
	}
	return mean(xs[len(xs)-n:])-mean(xs[:n]) > tol
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// pct is stats.Percentile for samples the caller knows to be non-empty
// and p in [0, 100]; it returns 0 otherwise.
func pct(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return pct(xs, 50) }
