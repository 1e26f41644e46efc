// Package fleet scales the single-vehicle HCPerf closed loop to a fleet:
// N vehicles (hundreds to thousands), each running its own task graph,
// engine and coordinator on the existing lifecycle kernel, all advanced
// deterministically on one virtual clock.
//
// Determinism at fleet scale rests on three rules:
//
//   - One clock order. A fleet run fires its events exactly as if every
//     vehicle's events lived on one shared simtime.EventQueue, where
//     same-instant events fire in creation order. The reference runner
//     does just that. The default runner gives each vehicle its own queue
//     and advances the fleet one vehicle step T_k at a time: in phase A,
//     workers (up to GOMAXPROCS, one per block of at least minBlock
//     vehicles) each run a contiguous block of vehicles up to (not
//     including) each vehicle's pending dynamics tick at T_k;
//     the fleet sampler then runs up to T_k; in phase B the runner fires
//     the ticks serially in platoon order. Vehicles observe each other
//     only through plant state that changes at those ticks, so this is
//     the shared-queue order, with one exception, the tie: an event at
//     exactly T_k, scheduled at exactly T_{k-1}, that reads a predecessor
//     before its own vehicle's tick, or a fleet sample at T_k scheduled
//     at or after T_{k-1}. The shared queue may order it after some of
//     T_k's ticks (see tieWatch). The runner detects a tie from the
//     firing event's schedule time and reruns the whole fleet on the
//     reference runner. Traced runs use the reference runner too, so
//     their lifecycle events keep their shared-queue order.
//   - Partitioned randomness. Each vehicle's engine and sensing noise are
//     seeded from its own per-vehicle seed — either pinned explicitly or
//     derived from the fleet seed with a splitmix64 partition
//     (VehicleSeed) — so no vehicle's random stream depends on N or on
//     any other vehicle's consumption.
//   - Canonical aggregation. Fleet-level reductions (means, percentiles)
//     sort their inputs before any floating-point arithmetic, so the
//     aggregate — and therefore the report digest — is invariant under
//     vehicle permutation.
//
// Shared-world coupling is optional: FleetCouplingNone runs N independent
// vehicles over the common obstacle field, while FleetCouplingPlatoon
// chains them — vehicle i perceives vehicle i-1's simulated motion as its
// lead, and a hard-braking predecessor inflates its follower's obstacle
// count (its braking literally becomes the follower's obstacles), which
// feeds back into the follower's sensor-fusion execution time exactly like
// any other scene complexity change.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"hcperf/internal/lifecycle"
	"hcperf/internal/scenario"
	"hcperf/internal/simtime"
	"hcperf/internal/trace"
)

// Defaults for the platoon's brake-to-obstacle coupling: a predecessor
// decelerating harder than DefaultBrakeThreshold adds
// DefaultBrakeObstacles to its follower's scene.
const (
	DefaultBrakeThreshold = 2.5
	DefaultBrakeObstacles = 12
)

// Config parameterises one fleet run.
type Config struct {
	// Base is the per-vehicle scenario template; its Scheme must be set,
	// every other field defaults to the paper's car-following setup. The
	// Seed field is ignored: per-vehicle seeds come from Seed /
	// VehicleSeeds.
	Base scenario.CarFollowingConfig
	// N is the number of vehicles (>= 1).
	N int
	// Coupling is scenario.FleetCouplingNone (default) or
	// scenario.FleetCouplingPlatoon.
	Coupling string
	// Spacing is the platoon's initial inter-vehicle gap in metres
	// (0 = the control law's desired gap at the initial speed).
	Spacing float64
	// BrakeThreshold is the predecessor deceleration magnitude (m/s^2)
	// that triggers the brake-to-obstacle coupling (0 = default).
	BrakeThreshold float64
	// BrakeObstacles is the obstacle bump a braking predecessor adds to
	// its follower's scene (0 = default).
	BrakeObstacles int
	// Seed is the fleet seed from which per-vehicle seeds are derived
	// when VehicleSeeds is empty.
	Seed int64
	// VehicleSeeds pins each vehicle's seed explicitly (length must be
	// N when non-empty).
	VehicleSeeds []int64
	// Tracer optionally receives every vehicle's lifecycle events,
	// interleaved in virtual-time order. A traced fleet runs on the
	// single-queue reference runner.
	Tracer lifecycle.Tracer
}

// VehicleSeed derives vehicle i's seed from the fleet seed with a
// splitmix64 step: a well-mixed 64-bit partition, so per-vehicle streams
// are decorrelated and independent of N. The derivation depends only on
// (fleetSeed, i) — adding or removing other vehicles never changes an
// existing vehicle's randomness.
func VehicleSeed(fleetSeed int64, i int) int64 {
	z := uint64(fleetSeed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// VehicleStats is one vehicle's per-run outcome.
type VehicleStats struct {
	// Index is the vehicle's position in the fleet (platoon order).
	Index int
	// Seed is the vehicle's own seed.
	Seed int64
	// SpeedErrRMS and DistErrRMS are the vehicle's RMS tracking errors.
	SpeedErrRMS, DistErrRMS float64
	// MissRatio is the vehicle's overall deadline-miss ratio.
	MissRatio float64
	// Throughput is control commands per second.
	Throughput float64
	// MeanResponse is the mean control-command response time (s).
	MeanResponse float64
	// Collision reports a gap <= 0 event.
	Collision bool
}

// Distribution summarises one per-vehicle metric across the fleet.
type Distribution struct {
	Mean, P50, P95, P99, Max float64
}

// distribution reduces xs canonically: the samples are sorted before any
// floating-point arithmetic, so the result is exactly invariant under
// permutation of the input order (vehicle relabeling).
func distribution(xs []float64) Distribution {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	pct := func(p float64) float64 {
		rank := p / 100 * float64(len(s)-1)
		lo := int(rank)
		frac := rank - float64(lo)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	return Distribution{
		Mean: sum / float64(len(s)),
		P50:  pct(50),
		P95:  pct(95),
		P99:  pct(99),
		Max:  s[len(s)-1],
	}
}

// Result aggregates one fleet run.
type Result struct {
	// N, Coupling and Duration echo the effective configuration.
	N        int
	Coupling string
	Duration float64
	// Vehicles holds per-vehicle outcomes in fleet (platoon) order.
	Vehicles []VehicleStats
	// SpeedRMS, DistRMS and Miss are the fleet-wide distributions of
	// the per-vehicle metrics.
	SpeedRMS, DistRMS, Miss Distribution
	// Collisions counts vehicles that collided.
	Collisions int
	// Rec holds the fleet-level aggregate series (fleet_err_mean,
	// fleet_err_p95, fleet_err_max, fleet_gap_min), sampled once per
	// summary period. Fleet vehicles record no series of their own: no
	// fleet output reads them.
	Rec *trace.Recorder

	// vehicleRecs holds each vehicle's own series recorder, in fleet
	// order, for a plan that keeps them; nil otherwise.
	vehicleRecs []*trace.Recorder
	// fellBack records that a tie sent the run to the reference runner;
	// workers is how many workers the parallel runner stepped it on.
	fellBack bool
	workers  int
}

// predProfile exposes a predecessor vehicle's simulated speed as its
// follower's lead-speed profile. Speed ignores the profile clock and reads
// the predecessor's current state, which only the predecessor's dynamics
// tick changes: at every step instant the ticks fire in platoon order, so
// the follower's own tick integrates against the predecessor's state for
// the step ending now, and every other follower event sees the state of
// the latest step whose ticks have all fired. Reads go through the tie
// watch, which flags the one same-instant order the parallel runner cannot
// reproduce.
type predProfile struct {
	pred  *scenario.CarFollowingRun
	q     *simtime.EventQueue // the follower's queue
	watch *tieWatch
}

// Speed implements vehicle.SpeedProfile.
func (p predProfile) Speed(float64) float64 {
	p.watch.read(p.q)
	return p.pred.FollowerSpeed()
}

// errTie reports that the parallel runner met a same-instant order it
// cannot reproduce; Run then reruns the fleet on the reference runner.
var errTie = errors.New("fleet: predecessor read tied with a step instant")

// tieWatch flags the same-instant orders the parallel runner cannot vouch
// for. On a shared queue the dynamics ticks of a step instant T_k fire in
// platoon order, all scheduled at T_{k-1}. A vehicle event at T_k that its
// own queue orders after the vehicle's tick was scheduled after that tick,
// so after its predecessor's too: both runners show it the predecessor as
// of T_k. An event ordered before its own tick runs in phase A and sees the
// predecessor as of T_{k-1}. The shared queue agrees when the event was
// scheduled before T_{k-1}, but one scheduled at exactly T_{k-1} may have
// been scheduled after the predecessor's tick of that instant, so its
// predecessor read is a tie. The fleet sampler runs between the phases and
// sees every vehicle as of T_{k-1}; a sample at T_k is a tie unless it was
// scheduled before T_{k-1}. Both cases are one rule: a read at T_k, before
// phase B, by an event scheduled at or after T_{k-1}.
type tieWatch struct {
	// step and prev are T_k and T_{k-1}; armed is set while phase A's
	// workers and then the sampler run, and clear in phase B, whose ticks
	// fire in shared-queue order. The runner writes them between phases
	// only.
	step, prev simtime.Time
	armed      bool
	tie        atomic.Bool
}

// read notes a cross-vehicle read by the event now firing on q: a
// predecessor read by a vehicle event, or the fleet sampler. A nil watch
// (the reference runner) ignores it.
func (w *tieWatch) read(q *simtime.EventQueue) {
	if w != nil && w.armed && q.Now() == w.step && q.ScheduledAt() >= w.prev {
		w.tie.Store(true)
	}
}

// minBlock is the fewest vehicles the parallel runner gives a worker of
// their own. Each vehicle step hands every extra worker its block and
// waits for it; on a 2-vCPU VM that hand-off costs tens of microseconds,
// more than stepping a smaller block saves (EXPERIMENTS.md).
const minBlock = 96

// plan is a validated Config with its defaults resolved.
type plan struct {
	cfg            Config
	coupling       string
	brakeThreshold float64
	brakeObstacles int
	seeds          []int64
	// shared is the obstacle field every vehicle drives through; coupling
	// terms stack on top per follower.
	shared func(t float64) int
	// block is the fewest vehicles per parallel worker (minBlock; the
	// package's tests lower it to run small fleets on several workers).
	block int
	// series keeps each vehicle's own series recorder. Only the package's
	// metamorphic tests set it, to compare histories with single runs.
	series bool
}

func newPlan(cfg Config) (*plan, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("fleet: N %d < 1", cfg.N)
	}
	p := &plan{cfg: cfg, coupling: cfg.Coupling, brakeThreshold: cfg.BrakeThreshold,
		brakeObstacles: cfg.BrakeObstacles, shared: cfg.Base.Obstacles, block: minBlock}
	if p.coupling == "" {
		p.coupling = scenario.FleetCouplingNone
	}
	switch p.coupling {
	case scenario.FleetCouplingNone, scenario.FleetCouplingPlatoon:
	default:
		return nil, fmt.Errorf("fleet: unknown coupling %q", p.coupling)
	}
	if cfg.Spacing < 0 {
		return nil, fmt.Errorf("fleet: negative spacing %v", cfg.Spacing)
	}
	if len(cfg.VehicleSeeds) > 0 && len(cfg.VehicleSeeds) != cfg.N {
		return nil, fmt.Errorf("fleet: %d vehicle seeds for %d vehicles", len(cfg.VehicleSeeds), cfg.N)
	}
	if p.brakeThreshold == 0 {
		p.brakeThreshold = DefaultBrakeThreshold
	}
	if p.brakeObstacles == 0 {
		p.brakeObstacles = DefaultBrakeObstacles
	}
	if p.shared == nil {
		p.shared = scenario.DefaultCarFollowingObstacles
	}
	p.seeds = make([]int64, cfg.N)
	for i := range p.seeds {
		if len(cfg.VehicleSeeds) > 0 {
			p.seeds[i] = cfg.VehicleSeeds[i]
		} else {
			p.seeds[i] = VehicleSeed(cfg.Seed, i)
		}
	}
	return p, nil
}

// Run executes one fleet run to completion and aggregates the results. An
// untraced fleet runs on the parallel runner unless a tie sends it back to
// the reference runner; the two produce identical results.
func Run(cfg Config) (*Result, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	return p.run()
}

func (p *plan) run() (*Result, error) {
	if p.cfg.Tracer == nil {
		res, err := p.runParallel()
		if !errors.Is(err, errTie) {
			return res, err
		}
	}
	res, err := p.runShared()
	if res != nil {
		res.fellBack = p.cfg.Tracer == nil
	}
	return res, err
}

// workers is the parallel runner's worker count: one per block of at
// least p.block vehicles, at most GOMAXPROCS, at least one.
func (p *plan) workers() int {
	return max(1, min(runtime.GOMAXPROCS(0), p.cfg.N/p.block))
}

// attach wires the fleet's vehicles in platoon order, vehicle i onto
// queue(i). watch observes every predecessor read (nil: no watch).
func (p *plan) attach(queue func(i int) *simtime.EventQueue, watch *tieWatch) ([]*scenario.CarFollowingRun, error) {
	runs := make([]*scenario.CarFollowingRun, p.cfg.N)
	for i := range runs {
		q := queue(i)
		vcfg := p.cfg.Base
		vcfg.Seed = p.seeds[i]
		vcfg.Obstacles = p.shared
		vcfg.Tracer = p.cfg.Tracer
		vcfg.DiscardSeries = !p.series
		if p.coupling == scenario.FleetCouplingPlatoon && i > 0 {
			pred, shared := runs[i-1], p.shared
			threshold, bump := p.brakeThreshold, p.brakeObstacles
			vcfg.LeadProfile = predProfile{pred: pred, q: q, watch: watch}
			vcfg.InitGap = p.cfg.Spacing
			vcfg.Obstacles = func(t float64) int {
				n := shared(t)
				watch.read(q)
				if pred.FollowerAccel() <= -threshold {
					n += bump
				}
				return n
			}
		}
		r, err := scenario.AttachCarFollowing(q, vcfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: vehicle %d: %w", i, err)
		}
		runs[i] = r
	}
	return runs, nil
}

// samplePeriod is the fleet sampler's period: the base summary rate.
func (p *plan) samplePeriod() simtime.Duration {
	if p.cfg.Base.SampleRate > 0 {
		return simtime.Duration(1 / p.cfg.Base.SampleRate)
	}
	return 1
}

// sampler returns the fleet-level aggregate sampler, recording into rec.
// It observes the vehicles' current plant state; the per-vehicle errors
// are sorted before summing, keeping the recorded aggregates
// permutation-invariant bit for bit.
func sampler(runs []*scenario.CarFollowingRun, rec *trace.Recorder) func(now simtime.Time) {
	errs := make([]float64, len(runs))
	return func(now simtime.Time) {
		gapMin := runs[0].Gap()
		for i, r := range runs {
			errs[i] = r.TrackingError(now)
			if g := r.Gap(); g < gapMin {
				gapMin = g
			}
		}
		sort.Float64s(errs)
		sum := 0.0
		for _, e := range errs {
			sum += e
		}
		d := distribution(errs)
		t := float64(now)
		recAdd(rec, "fleet_err_mean", t, sum/float64(len(errs)))
		recAdd(rec, "fleet_err_p95", t, d.P95)
		recAdd(rec, "fleet_err_max", t, d.Max)
		recAdd(rec, "fleet_gap_min", t, gapMin)
	}
}

// runShared is the reference runner: every vehicle on one shared queue,
// the fleet sampler created after every vehicle.
func (p *plan) runShared() (*Result, error) {
	q := simtime.NewEventQueue()
	runs, err := p.attach(func(int) *simtime.EventQueue { return q }, nil)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	period := p.samplePeriod()
	if _, err := q.NewTicker(period, period, sampler(runs, rec)); err != nil {
		return nil, fmt.Errorf("fleet: sampler: %w", err)
	}
	if err := q.RunUntil(simtime.Time(runs[0].Duration())); err != nil {
		return nil, fmt.Errorf("fleet: run: %w", err)
	}
	return p.collect(runs, rec), nil
}

// runParallel is the default runner: one queue per vehicle, advanced one
// vehicle step at a time (see the package doc). It returns errTie when the
// watch flags a same-instant order it cannot reproduce.
func (p *plan) runParallel() (*Result, error) {
	w := &tieWatch{}
	queues := make([]*simtime.EventQueue, p.cfg.N)
	for i := range queues {
		queues[i] = simtime.NewEventQueue()
	}
	runs, err := p.attach(func(i int) *simtime.EventQueue { return queues[i] }, w)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	sample := sampler(runs, rec)
	sq := simtime.NewEventQueue()
	period := p.samplePeriod()
	if _, err := sq.NewTicker(period, period, func(now simtime.Time) {
		w.read(sq)
		sample(now)
	}); err != nil {
		return nil, fmt.Errorf("fleet: sampler: %w", err)
	}

	end := simtime.Time(runs[0].Duration())
	workers := p.workers()
	pool := newPool(workers, p.cfg.N)
	defer pool.close()
	for {
		// Every vehicle steps on the same grid, so vehicle 0's pending
		// tick is T_k for the whole fleet.
		w.step = runs[0].NextStep().At
		last := w.step > end
		w.armed = true
		if err := pool.each(func(i int) error {
			if last {
				return queues[i].RunUntil(end)
			}
			return queues[i].RunBefore(runs[i].NextStep())
		}); err != nil {
			return nil, fmt.Errorf("fleet: run: %w", err)
		}
		if err := sq.RunUntil(min(w.step, end)); err != nil {
			return nil, fmt.Errorf("fleet: sampler: %w", err)
		}
		w.armed = false
		if w.tie.Load() {
			return nil, errTie
		}
		if last {
			res := p.collect(runs, rec)
			res.workers = workers
			return res, nil
		}
		for _, q := range queues {
			q.Step() // phase B: the tick RunBefore stopped at
		}
		w.prev = w.step
	}
}

// collect finishes every vehicle and aggregates the fleet result.
func (p *plan) collect(runs []*scenario.CarFollowingRun, rec *trace.Recorder) *Result {
	res := &Result{
		N:        p.cfg.N,
		Coupling: p.coupling,
		Duration: runs[0].Duration(),
		Vehicles: make([]VehicleStats, p.cfg.N),
		Rec:      rec,
	}
	if p.series {
		res.vehicleRecs = make([]*trace.Recorder, p.cfg.N)
	}
	speed := make([]float64, p.cfg.N)
	dist := make([]float64, p.cfg.N)
	miss := make([]float64, p.cfg.N)
	for i, r := range runs {
		out := r.Finish()
		res.Vehicles[i] = VehicleStats{
			Index:        i,
			Seed:         p.seeds[i],
			SpeedErrRMS:  out.SpeedErrRMS,
			DistErrRMS:   out.DistErrRMS,
			MissRatio:    out.Miss.MeanRatio(),
			Throughput:   out.Throughput,
			MeanResponse: out.MeanResponse,
			Collision:    out.Collision,
		}
		if res.vehicleRecs != nil {
			res.vehicleRecs[i] = out.Rec
		}
		speed[i], dist[i], miss[i] = out.SpeedErrRMS, out.DistErrRMS, res.Vehicles[i].MissRatio
		if out.Collision {
			res.Collisions++
		}
	}
	res.SpeedRMS = distribution(speed)
	res.DistRMS = distribution(dist)
	res.Miss = distribution(miss)
	return res
}

// recAdd appends to a recorder series; the fleet sampler only ever advances
// with simulation time, so failures indicate harness bugs.
func recAdd(rec *trace.Recorder, name string, t, v float64) {
	if err := rec.Add(name, t, v); err != nil {
		panic(fmt.Sprintf("fleet: record %s: %v", name, err))
	}
}
