package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

const (
	coldSetups   = 31 // serve-cold set-ups per pass; setup_s is their median
	coldChecks   = 16 // results re-executed outside the server per pass
	coldMinP95   = 200
	lagGrowthMS  = 10 // lateness growth that invalidates a run
	depthGrowth  = 1  // queued-job growth that invalidates a run
	drainTimeout = 60 * time.Second
)

// errInvalid marks a run whose measurements do not describe the offered
// load (the server or the generator fell behind); it is not reported.
var errInvalid = errors.New("invalid run")

// openLoop calls send(i, due) for i in [0, n) in its own goroutine at
// due = start + i/rate, whether or not earlier sends have returned, and
// returns once every send has. sleepUntil blocks until a due time.
func openLoop(start time.Time, rate float64, n int, sleepUntil func(time.Time), send func(i int, due time.Time)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(i, due)
		}(i)
	}
	wg.Wait()
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// coldRecord is one serve-cold request. Its latency runs from when it was
// due, not from when the generator got round to sending it, so a stall
// charges its wait to every request it delayed.
type coldRecord struct {
	due   time.Time
	op    coldOp
	depth int // queued jobs when the request was sent
	err   error
}

func (r coldRecord) latency() time.Duration { return r.op.end.Sub(r.due) }
func (r coldRecord) lag() time.Duration     { return r.op.sent.Sub(r.due) }

// runCold is the serve-cold workload: an open loop at coldRate requests/s
// of distinct 90 s single-vehicle runs against a 2-worker server with a
// disk store, each timed from its scheduled send until its result body
// has been read.
func runCold(ctx context.Context, cfg config) (*pass, error) {
	n := int(coldRate * cfg.window.Seconds())
	warm, bodies := coldBodies(cfg.seed, n)
	p := &pass{}

	var setups []float64
	var s *server
	for i := 0; i < coldSetups; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("cold-store-%d", i))
		start := time.Now()
		si, err := startServer(dir, cfg.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < coldSetups-1 {
			if err := si.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
			continue
		}
		s = si
	}
	defer s.close()
	c := newClient(s, cfg.tr, 64)
	defer c.close()
	wc := newClient(s, nil, 1)
	for _, b := range warm {
		_, err := submitAwait(ctx, wc, s, b, 0, 0)
		p.tally.op(err)
	}
	wc.close()
	mgr := s.svc.Manager()
	storeBefore := snapshotStore(mgr)

	recs := make([]coldRecord, n)
	opCtx, cancel := context.WithTimeout(ctx, cfg.window+drainTimeout)
	defer cancel()
	runtime.GC() // set-up's garbage is not the window's cost
	before := readRuntime()
	start := time.Now().Add(10 * time.Millisecond)
	openLoop(start, coldRate, n, sleepUntil, func(i int, due time.Time) {
		r := &recs[i]
		r.due, r.depth = due, mgr.QueueDepth()
		root := cfg.tr.id()
		r.op, r.err = submitAwait(opCtx, c, s, bodies[i], root, int64(i+1))
		cfg.tr.add(root, 0, int64(i+1), "op", due, r.op.end)
		if cfg.tr != nil && !r.op.sent.IsZero() {
			cfg.tr.add(cfg.tr.id(), root, int64(i+1), "loadgen.lag", due, r.op.sent)
		}
	})
	p.rt = readRuntime().sub(before)
	p.ops = n

	var lat, hits, lags, depths []float64
	var last time.Time
	for _, r := range recs {
		p.tally.op(r.err)
		lags = append(lags, float64(r.lag())/1e6)
		depths = append(depths, float64(r.depth))
		if r.err != nil {
			continue
		}
		lat = append(lat, float64(r.latency())/1e6)
		hits = append(hits, float64(r.op.end.Sub(r.op.done))/1e6)
		last = maxTime(last, r.op.end)
	}
	lagMax := pct(lags, 100)
	p.notef("serve-cold: %d requests at %g/s, %d completed, generator lag max %.3f ms, queue depth max %.0f",
		n, coldRate, len(lat), lagMax, pct(depths, 100))
	if grew(lags, lagGrowthMS) || grew(depths, depthGrowth) {
		return nil, fmt.Errorf("%w: generator lateness or queue backlog grew over the window (lag max %.1f ms)", errInvalid, lagMax)
	}
	if len(lat) < coldMinP95 {
		return nil, fmt.Errorf("%w: %d completions, p95 needs %d", errInvalid, len(lat), coldMinP95)
	}
	span := last.Sub(start).Seconds()

	// Every result's digest was read from the server; a seeded sample is
	// re-executed here, outside the timed window, and must agree.
	for _, i := range sampleIndices(cfg.seed, n, coldChecks) {
		it, want, err := recompute(ctx, bodies[i])
		if err == nil {
			err = checkDigest(fmt.Sprintf("serve-cold request %d", i), recs[i].op.digest, want)
			p.items = append(p.items, it)
		}
		p.tally.op(err)
	}
	p.lifecycleRepeats = 1
	p.layers = serviceLayers(mgr, storeBefore)
	p.layers["service.queue_depth_max"] = pct(depths, 100)
	p.layers["loadgen.lag_max_ms"] = lagMax
	p.layers["store.memory_hit_share"] = 0
	p.layers["store.disk_hit_share"] = 0

	p.e2e = map[string]float64{
		"setup_s":           median(setups),
		"vehicle_s_per_s":   coldDuration * float64(len(lat)) / span,
		"completion_p50_ms": median(lat),
		"completion_p95_ms": pct(lat, 95),
		"hit_p50_ms":        median(hits),
		"hit_p99_ms":        pct(hits, 99),
		"hit_per_s":         float64(len(hits)) / span,
	}
	return p, nil
}
