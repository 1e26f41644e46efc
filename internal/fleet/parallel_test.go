// Differential battery for the parallel fleet runner: every fleet it runs
// must equal the single-queue reference runner bit for bit, at every
// worker count, and the same-instant ties it cannot reproduce must send
// the run back to the reference runner.
package fleet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"hcperf/internal/fleet"
	"hcperf/internal/lifecycle"
	"hcperf/internal/scenario"
)

// withProcs runs f with GOMAXPROCS set to n, restoring it afterwards.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// resultDigest digests a fleet result the way RunSpec reports it.
func resultDigest(t *testing.T, res *fleet.Result) string {
	t.Helper()
	d, err := reportOf(&scenario.SpecResult{Title: "differential", Rows: fleet.Rows(res), Rec: res.Rec}).Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// assertSameAsReference runs cfg with a parallel worker for every vehicle
// (up to GOMAXPROCS), so that small fleets step on several workers too,
// and requires the reference runner's report digest and per-vehicle
// stats. It returns the parallel result.
func assertSameAsReference(t *testing.T, cfg fleet.Config, ref *fleet.Result) *fleet.Result {
	t.Helper()
	got, err := fleet.RunBlocks(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := resultDigest(t, got), resultDigest(t, ref); g != w {
		t.Errorf("report digest %s != reference %s", g, w)
	}
	for i := range ref.Vehicles {
		if got.Vehicles[i] != ref.Vehicles[i] {
			t.Errorf("vehicle %d: stats %+v != reference %+v", i, got.Vehicles[i], ref.Vehicles[i])
		}
	}
	return got
}

// TestParallelMatchesReference is the differential test: fleets of 1, 2,
// 17 and 64 vehicles, uncoupled and platoon, on min(GOMAXPROCS, N) workers
// at GOMAXPROCS 1, 2, 4 and 8, all equal to the reference runner — and
// none of them needs the fallback.
func TestParallelMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 17, 64} {
		for _, coupling := range []string{scenario.FleetCouplingNone, scenario.FleetCouplingPlatoon} {
			cfg := fleet.Config{
				Base:     scenario.CarFollowingConfig{Scheme: scenario.SchemeHCPerf, Duration: 3},
				N:        n,
				Coupling: coupling,
				Spacing:  18,
				Seed:     int64(n),
			}
			ref, err := fleet.RunReference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("N=%d/%s/procs=%d", n, coupling, procs), func(t *testing.T) {
					withProcs(procs, func() {
						got := assertSameAsReference(t, cfg, ref)
						if fleet.FellBack(got) {
							t.Error("an untied fleet fell back to the reference runner")
						} else if w := min(procs, n); fleet.Workers(got) != w {
							t.Errorf("stepped on %d workers, want %d", fleet.Workers(got), w)
						}
					})
				})
			}
		}
	}
}

// TestParallelTies covers the two same-instant cases. A fleet sample on
// every step instant (sample rate = 1/vehicle step) is scheduled one step
// before it fires, which the shared queue orders after that instant's
// ticks: the parallel runner cannot tell, and must fall back. A 0.05 s
// vehicle step lands every step on the ticks of the graph's 20 Hz sources,
// scheduled one step earlier; those ticks follow their own vehicle's tick,
// so the parallel runner reproduces them without falling back. Both must
// equal the reference runner.
func TestParallelTies(t *testing.T) {
	cases := []struct {
		name         string
		base         scenario.CarFollowingConfig
		wantFallback bool
	}{
		{"sample rate 1/vehicle step", scenario.CarFollowingConfig{
			Scheme: scenario.SchemeHCPerf, Duration: 3, SampleRate: 1 / scenario.DefaultVehicleStep}, true},
		{"vehicle step 0.05 on a 20 Hz source", scenario.CarFollowingConfig{
			Scheme: scenario.SchemeHCPerf, Duration: 3, VehicleStep: 0.05}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fleet.Config{Base: tc.base, N: 8, Coupling: scenario.FleetCouplingPlatoon, Spacing: 18, Seed: 3}
			ref, err := fleet.RunReference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			withProcs(2, func() {
				got := assertSameAsReference(t, cfg, ref)
				if fleet.FellBack(got) != tc.wantFallback {
					t.Errorf("fell back to the reference runner: %v, want %v", fleet.FellBack(got), tc.wantFallback)
				}
			})
		})
	}
}

// tracedPlatoonDigest is the SHA-256 of every lifecycle event of
// tracedPlatoonSpec, pinned from the single-queue runner that preceded
// per-vehicle queues.
const tracedPlatoonDigest = "bb0f3c487f089418f02cf604e2a8f211afcc573d48fb33fa5aa3b2b42371cb1b"

var tracedPlatoonSpec = scenario.Spec{
	Scenario: "carfollow", Scheme: "hcperf", Seed: 5, Duration: 3,
	Fleet: &scenario.FleetSpec{N: 6, Coupling: scenario.FleetCouplingPlatoon, Spacing: 18},
}

// eventsDigest hashes a lifecycle event stream field by field, floats by
// their bits.
func eventsDigest(t *testing.T, spec scenario.Spec) string {
	t.Helper()
	h := sha256.New()
	n := 0
	tr := lifecycle.TracerFunc(func(ev lifecycle.Event) {
		n++
		fmt.Fprintf(h, "%d|%d|%s|%d|%x|%d|%x|%x\n", ev.Kind, ev.Task, ev.TaskName, ev.Cycle,
			math.Float64bits(float64(ev.T)), ev.Proc,
			math.Float64bits(float64(ev.SourceTime)), math.Float64bits(float64(ev.Deadline)))
	})
	if _, err := fleet.RunSpec(spec, tr); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("traced fleet emitted no lifecycle events")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTracedFleetEventsUnchanged pins a traced fleet's lifecycle events:
// traced runs stay on the reference runner, so the interleaved event
// stream keeps its single-queue order byte for byte.
func TestTracedFleetEventsUnchanged(t *testing.T) {
	withProcs(4, func() {
		if got := eventsDigest(t, tracedPlatoonSpec); got != tracedPlatoonDigest {
			t.Errorf("traced fleet events digest %s, want %s", got, tracedPlatoonDigest)
		}
	})
}
