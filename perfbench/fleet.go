package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"hcperf/internal/run"
	"hcperf/internal/scenario"
	"hcperf/internal/store"
)

// replayBurst is how long the store replays after each repetition run.
const replayBurst = 150 * time.Millisecond

// goldenFleet pins the fleet-platoon report digest for the default seed;
// every pass first runs that spec once, untimed, and compares.
const (
	goldenFleetSeed   = 1
	goldenFleetDigest = "4cc57922656e34c006b9f7f9da6a1aeb8e557771d7bac61c0f5eefa8940427d5"
)

// runFleet is the fleet-platoon workload: the 256-vehicle platoon spec runs
// back to back through run.Pipeline with no store, the hcperf-sim -spec
// path, until the window closes. The first result is persisted, and after
// each repetition, outside its timing, come one set-up run and a burst of
// replays of the same request through a disk-backed pipeline (hcperf-sim
// -spec -store on a stored spec), which time setup_s and the hit_*
// metrics. Interleaving makes all three sample the same stretch of time
// on a machine whose speed drifts.
func runFleet(ctx context.Context, cfg config) (*pass, error) {
	spec, err := scenario.DecodeSpec(bytes.NewReader(fleetSpecJSON(cfg.seed)))
	if err != nil {
		return nil, err
	}
	req := run.Request{Spec: &spec}
	p := &pass{}
	tr := cfg.tr

	var opSpan, opReq int64
	pipe := &run.Pipeline{}
	if tr != nil {
		pipe.Exec = func(ctx context.Context, r run.Request) (*run.Result, error) {
			start := time.Now()
			res, err := run.Execute(ctx, r)
			tr.add(tr.id(), opSpan, opReq, "run.execute", start, time.Now())
			return res, err
		}
	}
	d, err := store.OpenDisk(filepath.Join(cfg.dir, "fleet-store"), 0, nil)
	if err != nil {
		return nil, err
	}
	replay := &run.Pipeline{Disk: d}

	// The default-seed check doubles as the warm-up run.
	p.tally.op(checkGoldenFleet(ctx))

	var lat, setups, hits []float64
	var hitWall time.Duration
	var last *run.Result
	var want string
	runtime.GC()
	deadline := time.Now().Add(cfg.window)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		opSpan, opReq = tr.id(), int64(len(lat)+1)
		before := readRuntime()
		start := time.Now()
		res, _, digest, err := pipe.Run(ctx, req)
		end := time.Now()
		p.rt = p.rt.add(readRuntime().sub(before))
		tr.add(opSpan, 0, opReq, "op", start, end)
		lat = append(lat, float64(end.Sub(start))/1e6)
		if err == nil {
			var got string
			got, err = res.Report.Digest()
			if want == "" {
				want = got
			}
			if err == nil {
				err = checkDigest("fleet-platoon repetition", got, want)
			}
			if err == nil && last == nil {
				err = run.SaveDisk(d, digest, res)
			}
			last = res
		}
		p.tally.op(err)

		setups = append(setups, setupRun(ctx, spec, &p.tally))
		if want != "" {
			runtime.GC() // the repetitions' garbage is not the replays' cost
			h, wall := replayFleet(ctx, replay, req, want, &p.tally)
			hits, hitWall = append(hits, h...), hitWall+wall
		}
	}
	p.ops = len(lat)
	if last == nil {
		return nil, fmt.Errorf("fleet-platoon: no repetition completed")
	}
	p.items = []probeItem{{req: req, res: last, spec: spec, vehicles: fleetVehicles}}
	p.lifecycleRepeats = 2

	setup := median(setups)
	rates := make([]float64, len(lat))
	for i, ms := range lat {
		rates[i] = fleetVehicles * fleetDuration / (ms/1e3 - setup)
	}
	p.e2e = map[string]float64{
		"setup_s":           setup,
		"vehicle_s_per_s":   median(rates),
		"completion_p50_ms": median(lat),
		"completion_p95_ms": pct(lat, 95),
		"hit_p50_ms":        median(hits),
		"hit_p99_ms":        pct(hits, 99),
		"hit_per_s":         float64(len(hits)) / hitWall.Seconds(),
	}
	p.notef("fleet-platoon: %d repetitions of a %d-vehicle %g s platoon, %d replays, report %.12s",
		len(lat), fleetVehicles, fleetDuration, len(hits), want)
	return p, nil
}

// setupRun times one run of spec at the shortest duration a run accepts:
// building the whole fleet and stepping it once. It is never traced.
func setupRun(ctx context.Context, spec scenario.Spec, t *tally) float64 {
	spec.Duration = setupDuration
	start := time.Now()
	_, _, _, err := (&run.Pipeline{}).Run(ctx, run.Request{Spec: &spec})
	el := time.Since(start).Seconds()
	t.op(err)
	return el
}

// checkGoldenFleet runs the default-seed spec and compares its report
// digest with the pinned one.
func checkGoldenFleet(ctx context.Context) error {
	spec, err := scenario.DecodeSpec(bytes.NewReader(fleetSpecJSON(goldenFleetSeed)))
	if err != nil {
		return err
	}
	res, _, _, err := (&run.Pipeline{}).Run(ctx, run.Request{Spec: &spec})
	if err != nil {
		return err
	}
	got, err := res.Report.Digest()
	if err != nil {
		return err
	}
	return checkDigest("fleet-platoon default seed", got, goldenFleetDigest)
}

// replayFleet replays req through the disk-backed pipeline for
// replayBurst of replay time, checking each answer comes from the disk
// tier with the expected report. It returns the replay latencies (ms) and
// their total.
func replayFleet(ctx context.Context, pipe *run.Pipeline, req run.Request, want string, t *tally) ([]float64, time.Duration) {
	var lat []float64
	var wall time.Duration
	for wall < replayBurst && ctx.Err() == nil {
		start := time.Now()
		got, tier, _, err := pipe.Run(ctx, req)
		el := time.Since(start)
		wall += el
		lat = append(lat, float64(el)/1e6)
		if err == nil && tier != store.TierDisk {
			err = fmt.Errorf("fleet-platoon replay answered from tier %q, want disk", tier)
		}
		if err == nil {
			var g string
			if g, err = got.Report.Digest(); err == nil {
				err = checkDigest("fleet-platoon replay", g, want)
			}
		}
		t.op(err)
	}
	return lat, wall
}
