package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

const (
	hotClients  = 2
	hotPrewarms = 3 // prewarms of the working set per pass
	hotSetups   = 3 // serve-hot set-ups per pass; setup_s is their median
	hotChecks   = 8 // working-set entries re-executed outside the server
)

// runHot is the serve-hot workload. Fresh servers execute the working set,
// one request at a time, and record every report digest; those
// submissions give serve-hot's completion_* figures. The last store is
// then reopened under a new service, and 2 closed-loop clients on 2
// keep-alive connections resubmit random members of the working set until
// the window closes. The set is twice the memory tier, so about half the
// hits are read from disk.
func runHot(ctx context.Context, cfg config) (*pass, error) {
	warm, bodies := hotBodies(cfg.seed)
	p := &pass{}

	// The prewarm runs hotPrewarms times, each on a fresh store, for
	// enough completions to time; every one must give the same reports.
	// The window serves the last store.
	var want []string
	var comp []float64
	var dir string
	for i := 0; i < hotPrewarms; i++ {
		dir = filepath.Join(cfg.dir, fmt.Sprintf("hot-store-%d", i))
		got, lat, err := populate(ctx, dir, warm, bodies, cfg.tr, &p.tally)
		if err != nil {
			return nil, err
		}
		comp = append(comp, lat...)
		if want == nil {
			want = got
			continue
		}
		for j := range got {
			p.tally.op(checkDigest(fmt.Sprintf("serve-hot prewarm %d entry %d", i, j), got[j], want[j]))
		}
	}

	// Set-up: reopen the populated store, build the service and make one
	// pass over the working set. All but the last server are closed again.
	var setups []float64
	var s *server
	for i := 0; i < hotSetups; i++ {
		start := time.Now()
		si, err := startServer(dir, cfg.tr)
		if err != nil {
			return nil, err
		}
		c := newClient(si, nil, 1)
		for j, b := range bodies {
			p.tally.op(hit(ctx, c, b, want[j], 0, nil))
		}
		c.close()
		setups = append(setups, time.Since(start).Seconds())
		if i < hotSetups-1 {
			if err := si.close(); err != nil {
				return nil, err
			}
			continue
		}
		s = si
	}
	defer s.close()
	mgr := s.svc.Manager()
	storeBefore := snapshotStore(mgr)

	type clientResult struct {
		lat   []float64
		tiers map[string]int
	}
	results := make([]clientResult, hotClients)
	runtime.GC() // set-up's garbage is not the window's cost
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(cfg.window)
	var wg sync.WaitGroup
	for k := 0; k < hotClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newClient(s, cfg.tr, 1)
			defer c.close()
			rng := rand.New(rand.NewSource(int64(streamValue(cfg.seed, streamHot, uint64(1000+k)))))
			r := clientResult{tiers: make(map[string]int)}
			for n := 0; time.Now().Before(deadline) && ctx.Err() == nil; n++ {
				j := rng.Intn(len(bodies))
				id := int64(k*1_000_000 + n + 1)
				t0 := time.Now()
				err := hit(ctx, c, bodies[j], want[j], id, r.tiers)
				r.lat = append(r.lat, float64(time.Since(t0))/1e6)
				p.tally.op(err)
			}
			results[k] = r
		}(k)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	p.rt = readRuntime().sub(before)

	var lat []float64
	tiers := make(map[string]int)
	for _, r := range results {
		lat = append(lat, r.lat...)
		for t, n := range r.tiers {
			tiers[t] += n
		}
	}
	p.ops = len(lat)
	if p.ops == 0 {
		return nil, fmt.Errorf("serve-hot: no request completed")
	}

	// The prewarm digests are the reference every hit was checked
	// against; a seeded sample of them is re-executed here and must agree.
	for _, i := range sampleIndices(cfg.seed, len(bodies), hotChecks) {
		it, d, err := recompute(ctx, bodies[i])
		if err == nil {
			err = checkDigest(fmt.Sprintf("serve-hot working-set entry %d", i), want[i], d)
			p.items = append(p.items, it)
		}
		p.tally.op(err)
	}
	p.lifecycleRepeats = 1
	p.layers = serviceLayers(mgr, storeBefore)
	p.layers["store.memory_hit_share"] = float64(tiers["memory"]) / float64(p.ops)
	p.layers["store.disk_hit_share"] = float64(tiers["disk"]) / float64(p.ops)
	p.notef("serve-hot: %d hits from %d clients, %d memory / %d disk", p.ops, hotClients, tiers["memory"], tiers["disk"])

	hitsPerS := float64(p.ops) / wall
	p.e2e = map[string]float64{
		"setup_s":           median(setups),
		"vehicle_s_per_s":   hotDuration * hitsPerS,
		"completion_p50_ms": median(comp),
		"completion_p95_ms": pct(comp, 95),
		"hit_p50_ms":        median(lat),
		"hit_p99_ms":        pct(lat, 99),
		"hit_per_s":         hitsPerS,
	}
	return p, nil
}

// populate warms a fresh server over dir with the warm bodies, then
// executes every working-set body once, one after another from one
// client. It returns each report digest and each submission's latency
// (ms, POST until the result body was read).
func populate(ctx context.Context, dir string, warm, bodies [][]byte, tr *tracer, t *tally) ([]string, []float64, error) {
	s, err := startServer(dir, tr)
	if err != nil {
		return nil, nil, err
	}
	wc := newClient(s, nil, 1)
	for _, b := range warm {
		_, err := submitAwait(ctx, wc, s, b, 0, 0)
		t.op(err)
	}
	wc.close()
	c := newClient(s, tr, 1)
	want := make([]string, len(bodies))
	lat := make([]float64, len(bodies))
	for i, b := range bodies {
		root := tr.id()
		op, err := submitAwait(ctx, c, s, b, root, int64(-i-1))
		tr.add(root, 0, int64(-i-1), "populate", op.sent, op.end)
		want[i], lat[i] = op.digest, float64(op.end.Sub(op.sent))/1e6
		t.op(err)
	}
	c.close()
	return want, lat, s.close()
}

// hit resubmits one working-set body and checks it is answered from the
// store with the report recorded at prewarm. tiers, when non-nil, counts
// the answering tier.
func hit(ctx context.Context, c *client, body []byte, want string, req int64, tiers map[string]int) error {
	a, err := c.do(ctx, http.MethodPost, "/v1/runs", body, "op", 0, req)
	if err != nil {
		return err
	}
	if tiers != nil {
		tiers[a.cache]++
	}
	if err := checkSubmit(a.code, a.cache, true); err != nil {
		return err
	}
	st, err := a.status()
	if err != nil {
		return err
	}
	return checkDigest("serve-hot hit", st.Digest, want)
}
