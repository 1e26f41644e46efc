// Command perfbench is hcperf's repository benchmark. It runs one named
// workload in-process against the real packages, checks every output,
// and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload serve-cold --seed 7 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload twice, untraced and then traced, prints the per-layer
// table and the tracing overhead, writes the spans under
// .bench_build/spans/, and reports the per-layer metrics. README.md
// describes the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// config is what a workload pass runs with.
type config struct {
	seed   int64
	window time.Duration
	dir    string  // scratch directory for stores, removed when the run ends
	tr     *tracer // nil: tracing off
}

// pass is one measured run of a workload.
type pass struct {
	e2e   map[string]float64 // end-to-end metrics; main adds peak_rss_mb
	tally tally
	ops   int      // operations in the measured window
	rt    rtSample // runtime counters over the measured window
	// items are sampled results the per-layer probes re-measure;
	// lifecycleRepeats is how often the lifecycle probe runs each.
	items            []probeItem
	lifecycleRepeats int
	layers           map[string]float64 // service-side figures the pass counted
	notes            []string
}

func (p *pass) notef(format string, args ...any) {
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(context.Context, config) (*pass, error)
}

var workloads = []workload{
	{"fleet-platoon", runFleet},
	{"serve-cold", runCold},
	{"serve-hot", runHot},
}

// metricDef names one reported metric; result marks the ones the result
// line carries. The end-to-end tails are printed but left out of it: on a
// shared 2-core machine they move by 25-60% between runs of the same code,
// more than any bound a regression gate can use. The per-layer metrics in
// the result line are the ones every workload measures; the others exist
// only on the serve workloads and are printed in the table. layer is the
// module a per-layer figure belongs to.
type metricDef struct {
	name, unit, layer string
	result            bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", result: true},
	{name: "vehicle_s_per_s", unit: "vehicle-s/s", result: true},
	{name: "completion_p50_ms", unit: "ms", result: true},
	{name: "completion_p95_ms", unit: "ms"},
	{name: "hit_p50_ms", unit: "ms", result: true},
	{name: "hit_p99_ms", unit: "ms"},
	{name: "hit_per_s", unit: "req/s", result: true},
	{name: "peak_rss_mb", unit: "MB", result: true},
}

var perLayer = []metricDef{
	{"simtime.ticker_churn_ns", "ns", "simtime", true},
	{"simtime.ticker_churn_allocs", "allocs", "simtime", true},
	{"simtime.schedule_ns", "ns", "simtime", true},
	{"simtime.schedule_allocs", "allocs", "simtime", true},
	{"sched.gamma_search_q8_ns", "ns", "sched", true},
	{"sched.gamma_search_q128_ns", "ns", "sched", true},
	{"sched.dynamic_select_q32_ns", "ns", "sched", true},
	{"engine.second_hcperf_ns", "ns", "engine", true},
	{"engine.second_hcperf_allocs", "allocs", "engine", true},
	{"engine.second_edf_ns", "ns", "engine", true},
	{"engine.second_edf_allocs", "allocs", "engine", true},
	{"hungarian.solver_n23_ns", "ns", "hungarian", true},
	{"hungarian.solver_n23_allocs", "allocs", "hungarian", true},
	{"mfc.step_ns", "ns", "mfc", true},
	{"mfc.step_allocs", "allocs", "mfc", true},
	{"lifecycle.jobs_released", "1/vehicle-s", "lifecycle", true},
	{"lifecycle.jobs_completed", "1/vehicle-s", "lifecycle", true},
	{"lifecycle.jobs_missed", "1/vehicle-s", "lifecycle", true},
	{"lifecycle.jobs_expired", "1/vehicle-s", "lifecycle", true},
	{"lifecycle.ns_per_event", "ns", "lifecycle", true},
	{"fleet.step_ms_per_sim_s", "ms", "fleet", true},
	{"go.alloc_mb", "MB/op", "runtime", true},
	{"go.gc_cycles", "cycles/op", "runtime", true},
	{"go.gc_pause_ms", "ms/op", "runtime", true},
	{"run.execute_ms", "ms", "run", true},
	{"run.normalize_us", "us", "run", true},
	{"run.digest_us", "us", "run", true},
	{"run.result_bytes", "bytes", "run", true},
	{"experiment.report_digest_ms", "ms", "experiment", true},
	{"store.persist_ms", "ms", "store", true},
	{"store.load_disk_ms", "ms", "store", true},
	{"service.status_encode_ms", "ms", "service", true},
	{"service.submit_ms", "ms", "service", false},
	{"service.queue_wait_ms", "ms", "service", false},
	{"service.result_ms", "ms", "service", false},
	{"service.handler_ms", "ms", "service", false},
	{"http.transport_ms", "ms", "net/http", false},
	{"store.memory_hit_share", "ratio", "store", false},
	{"store.disk_hit_share", "ratio", "store", false},
	{"store.memory_evictions", "count", "store", false},
	{"store.disk_evictions", "count", "store", false},
	{"service.queue_depth_max", "count", "service", false},
	{"service.shed", "count", "service", false},
	{"policy.breaker_opens", "count", "policy", false},
	{"loadgen.lag_max_ms", "ms", "perfbench", false},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runDeadline bounds a whole invocation, which must end within 180 s.
const runDeadline = 170 * time.Second

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-platoon | serve-cold | serve-hot")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (fleet-platoon, serve-cold or serve-hot), --seconds >= 1 and --trace 0|1\n")
		return 2
	}

	if err := os.MkdirAll(filepath.Join(".bench_build", "work"), 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "work"), w.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, dir: filepath.Join(dir, "untraced")}
	res, err := measure(ctx, w, cfg, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		if errors.Is(err, errInvalid) {
			return 3
		}
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// measure runs the untraced pass and, when traced is set, the traced pass
// and the per-layer probes. It prints the human-readable report to out and
// returns the result line.
func measure(ctx context.Context, w *workload, cfg config, traced bool, out io.Writer) (*result, error) {
	base, err := w.run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	base.e2e["peak_rss_mb"] = peakRSS()
	total := &base.tally
	printNotes(out, base)
	printEndToEnd(out, w.name, base, nil)

	res := &result{Metrics: make(map[string]metric)}
	if !traced {
		for _, m := range endToEnd {
			if !m.result {
				continue
			}
			v, ok := base.e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s not measured", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	} else {
		// The untraced pass's stores are not needed again; their written
		// pages must not weigh on the traced pass.
		if err := os.RemoveAll(cfg.dir); err != nil {
			return nil, err
		}
		tcfg := cfg
		tcfg.tr = newTracer()
		tcfg.dir = filepath.Join(filepath.Dir(cfg.dir), "traced")
		tp, err := w.run(ctx, tcfg)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		tp.e2e["peak_rss_mb"] = peakRSS()
		total.add(&tp.tally)
		spans := tcfg.tr.snapshot()
		layers, err := measureLayers(ctx, tcfg.dir, tp, spans, total)
		if err != nil {
			return nil, fmt.Errorf("per-layer probes: %w", err)
		}
		printNotes(out, tp)
		printEndToEnd(out, w.name+" traced", tp, base)
		printLayers(out, w.name, layers, spans)
		for _, m := range perLayer {
			if !m.result {
				continue
			}
			v, ok := layers[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s not measured", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		spanDir := filepath.Join(".bench_build", "spans")
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)
	}
	total.report(out)
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0 && total.attempted > 0
	fmt.Fprintf(out, "%s: correct=%t attempted=%d failed=%d failed_ratio=%g\n",
		w.name, res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

func printNotes(out io.Writer, p *pass) {
	for _, n := range p.notes {
		fmt.Fprintln(out, n)
	}
}

// printEndToEnd prints a pass's end-to-end metrics, and when base is set
// the traced-minus-untraced difference: the tracing overhead.
func printEndToEnd(out io.Writer, title string, p, base *pass) {
	fmt.Fprintf(out, "%s end-to-end:\n", title)
	for _, m := range endToEnd {
		line := fmt.Sprintf("  %-20s %14.4f %-12s", m.name, p.e2e[m.name], m.unit)
		if !m.result {
			line += " (printed only)"
		}
		if base != nil {
			b := base.e2e[m.name]
			line += fmt.Sprintf(" untraced %.4f, overhead %+.4f (%+.1f%%)", b, p.e2e[m.name]-b, 100*(p.e2e[m.name]-b)/b)
		}
		fmt.Fprintln(out, line)
	}
}

// printLayers prints the per-layer table and the span self-time table.
func printLayers(out io.Writer, workload string, layers map[string]float64, spans []span) {
	fmt.Fprintf(out, "%s per-layer:\n", workload)
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			fmt.Fprintf(out, "  %-30s %-10s %16s  unmeasured: %s does not exercise this layer\n", m.name, m.layer, "n/a", workload)
			continue
		}
		fmt.Fprintf(out, "  %-30s %-10s %16.4f %s\n", m.name, m.layer, v, m.unit)
	}
	stats := spanStats(spans)
	var selfSum float64
	for _, st := range stats {
		selfSum += st.selfTotal
	}
	fmt.Fprintf(out, "%s spans (self = duration minus child spans):\n", workload)
	fmt.Fprintf(out, "  %-20s %8s %12s %12s %8s\n", "span", "count", "p50 ms", "self p50 ms", "self %")
	for _, st := range stats {
		fmt.Fprintf(out, "  %-20s %8d %12.4f %12.4f %7.1f%%\n", st.name, st.count, st.p50, st.self, 100*st.selfTotal/selfSum)
	}
}

// peakRSS is the process's peak resident set (VmHWM) in MB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}
