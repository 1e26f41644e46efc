package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"hcperf/internal/fleet"
	"hcperf/internal/lifecycle"
	"hcperf/internal/perf"
	"hcperf/internal/run"
	"hcperf/internal/scenario"
	"hcperf/internal/store"
)

// probeItem is one request a workload ran, with its result: the per-layer
// probes re-measure the layers that request passed through, each call
// timed from outside around a public function.
type probeItem struct {
	req      run.Request   // as submitted, before normalization
	res      *run.Result   // its result
	spec     scenario.Spec // what it simulates, for the lifecycle probe
	vehicles int
}

// specOf is the spec a single-vehicle scenario request runs.
func specOf(req run.Request) scenario.Spec {
	return scenario.Spec{Scenario: req.Scenario, Scheme: req.Scheme, Seed: req.Seed, Duration: req.Duration}
}

// kernelBenchtime is the -benchtime the perf suite runs with in a traced
// run: long enough for a stable ns/op at these sub-millisecond costs.
const kernelBenchtime = "100ms"

// kernelMetrics maps perf.Suite entries to per-layer metric names; entries
// marked allocs also report allocs/op.
var kernelMetrics = []struct {
	bench, metric string
	allocs        bool
}{
	{"SimtimeTickerChurn", "simtime.ticker_churn", true},
	{"SimtimeSchedule", "simtime.schedule", true},
	{"GammaSearch/queue=8", "sched.gamma_search_q8", false},
	{"GammaSearch/queue=128", "sched.gamma_search_q128", false},
	{"DynamicSelect/queue=32", "sched.dynamic_select_q32", false},
	{"EngineSecond/HCPerf", "engine.second_hcperf", true},
	{"EngineSecond/EDF", "engine.second_edf", true},
	{"HungarianSolver/n=23", "hungarian.solver_n23", true},
	{"MFCStep", "mfc.step", true},
}

// measureLayers computes the per-layer figures of a traced pass: the perf
// suite's kernel entries, runtime counters per operation, figures derived
// from the pass's spans, and the store, codec, render and lifecycle probes
// over the pass's sampled results. Probe failures count in t.
func measureLayers(ctx context.Context, dir string, p *pass, spans []span, t *tally) (map[string]float64, error) {
	out := make(map[string]float64)
	for k, v := range p.layers {
		out[k] = v
	}

	suite, err := perf.RunSuite(kernelBenchtime)
	if err != nil {
		return nil, err
	}
	for _, k := range kernelMetrics {
		r := suite.Lookup(k.bench)
		if r == nil {
			return nil, fmt.Errorf("perf suite has no entry %q", k.bench)
		}
		out[k.metric+"_ns"] = r.NsPerOp
		if k.allocs {
			out[k.metric+"_allocs"] = r.AllocsPerOp
		}
	}

	ops := float64(p.ops)
	out["go.alloc_mb"] = p.rt.allocBytes / 1e6 / ops
	out["go.gc_cycles"] = p.rt.gcCycles / ops
	out["go.gc_pause_ms"] = p.rt.pauseSec * 1e3 / ops

	var transports []float64
	for _, st := range spanStats(spans) {
		transports = append(transports, st.transports...)
		switch st.name {
		case "run.execute":
			out["run.execute_ms"] = st.p50
		case "service.submit":
			out["service.submit_ms"] = st.p50
		case "service.queue_wait":
			out["service.queue_wait_ms"] = st.p50
		case "service.result":
			out["service.result_ms"] = st.p50
		case "service.handler POST":
			out["service.handler_ms"] = st.p50
		}
	}
	if len(transports) > 0 {
		out["http.transport_ms"] = median(transports)
	}

	if err := probeResults(filepath.Join(dir, "probe-store"), p.items, out, t); err != nil {
		return nil, err
	}
	if err := probeLifecycle(ctx, p.items, p.lifecycleRepeats, out, t); err != nil {
		return nil, err
	}
	return out, nil
}

// probeRepeats is how often the microsecond-scale normalize and digest
// calls are repeated per item; the median is reported.
const probeRepeats = 100

// probeResults times the run, experiment, store and service layers on
// each sampled result: request normalization and digest, the report
// digest, the result codec and disk write (run.SaveDisk), the disk read
// (run.LoadDisk), and the status render (Report.View plus JSON).
func probeResults(dir string, items []probeItem, out map[string]float64, t *tally) error {
	d, err := store.OpenDisk(dir, 0, nil)
	if err != nil {
		return err
	}
	var norm, dig, rdig, size, persist, load, render []float64
	for _, it := range items {
		var n run.Request
		var ns, ds []float64
		for r := 0; r < probeRepeats; r++ {
			start := time.Now()
			n, err = it.req.Normalize()
			mid := time.Now()
			_ = n.Digest()
			end := time.Now()
			if err != nil {
				return err
			}
			ns = append(ns, float64(mid.Sub(start))/1e3)
			ds = append(ds, float64(end.Sub(mid))/1e3)
		}
		norm, dig = append(norm, median(ns)), append(dig, median(ds))
		digest := n.Digest()

		start := time.Now()
		want, err := it.res.Report.Digest()
		rdig = append(rdig, sinceMS(start))
		if err != nil {
			return err
		}
		enc, err := run.EncodeResult(digest, it.res)
		if err != nil {
			return err
		}
		size = append(size, float64(len(enc)))

		start = time.Now()
		err = run.SaveDisk(d, digest, it.res)
		persist = append(persist, sinceMS(start))
		if err != nil {
			return err
		}
		start = time.Now()
		back, ok := run.LoadDisk(d, digest)
		load = append(load, sinceMS(start))
		if !ok {
			err = fmt.Errorf("probe store lost entry %.12s", digest)
		} else {
			var got string
			if got, err = back.Report.Digest(); err == nil {
				err = checkDigest("disk round trip", got, want)
			}
		}
		t.op(err)

		start = time.Now()
		_, err = json.Marshal(it.res.Report.View(false))
		render = append(render, sinceMS(start))
		if err != nil {
			return err
		}
	}
	out["run.normalize_us"] = median(norm)
	out["run.digest_us"] = median(dig)
	out["experiment.report_digest_ms"] = median(rdig)
	out["run.result_bytes"] = median(size)
	out["store.persist_ms"] = median(persist)
	out["store.load_disk_ms"] = median(load)
	out["service.status_encode_ms"] = median(render)
	return nil
}

func sinceMS(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// lifeCounts counts lifecycle events by kind.
type lifeCounts [lifecycle.EventControl + 1]int64

func (c lifeCounts) total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

// probeLifecycle runs each item's spec through fleet.RunSpec with a
// counting lifecycle.Tracer, repeats times, and once at the set-up
// duration; stepping time is the difference. Repeated runs of one spec
// must count identical events.
func probeLifecycle(ctx context.Context, items []probeItem, repeats int, out map[string]float64, t *tally) error {
	var rel, comp, miss, exp, nsPerEvent, stepMS []float64
	for _, it := range items {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		short := it.spec
		short.Duration = setupDuration
		start := time.Now()
		if _, err := fleet.RunSpec(short, nil); err != nil {
			return err
		}
		setup := time.Since(start)
		var first lifeCounts
		for r := 0; r < repeats; r++ {
			var c lifeCounts
			tr := lifecycle.TracerFunc(func(ev lifecycle.Event) { c[ev.Kind]++ })
			start := time.Now()
			if _, err := fleet.RunSpec(it.spec, tr); err != nil {
				return err
			}
			step := time.Since(start) - setup
			if r == 0 {
				first = c
			} else if c != first {
				t.op(fmt.Errorf("lifecycle counts differ between runs of one spec: %v vs %v", c, first))
				continue
			}
			t.op(nil)
			vs := float64(it.vehicles) * it.spec.Duration
			rel = append(rel, float64(c[lifecycle.EventRelease])/vs)
			comp = append(comp, float64(c[lifecycle.EventComplete])/vs)
			miss = append(miss, float64(c[lifecycle.EventMiss])/vs)
			exp = append(exp, float64(c[lifecycle.EventExpire])/vs)
			nsPerEvent = append(nsPerEvent, float64(step)/float64(c.total()))
			stepMS = append(stepMS, float64(step)/1e6/it.spec.Duration)
		}
	}
	out["lifecycle.jobs_released"] = median(rel)
	out["lifecycle.jobs_completed"] = median(comp)
	out["lifecycle.jobs_missed"] = median(miss)
	out["lifecycle.jobs_expired"] = median(exp)
	out["lifecycle.ns_per_event"] = median(nsPerEvent)
	out["fleet.step_ms_per_sim_s"] = median(stepMS)
	return nil
}
