package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hcperf/internal/core"
	"hcperf/internal/engine"
	"hcperf/internal/lifecycle"
	"hcperf/internal/metrics"
	"hcperf/internal/sched"
	"hcperf/internal/simtime"
	"hcperf/internal/stats"
	"hcperf/internal/trace"
	"hcperf/internal/vehicle"
)

// CarFollowingConfig parameterises the car-following scenario (paper
// §VII-B1, §VII-C and the hardware study §VII-B3). Zero fields take the
// defaults of the simulation evaluation: a sine-speed lead (10-20 m/s,
// 7 s period), the 23-task graph on 2 processors and the complex-scene
// episode over t ∈ [10 s, 80 s) that doubles the sensor-fusion time
// (obstacles 11 → 23).
type CarFollowingConfig struct {
	// Scheme selects the scheduling scheme.
	Scheme Scheme
	// Seed drives all scenario randomness.
	Seed int64
	// Duration is the simulated time span in seconds (default 90).
	Duration float64
	// NumProcs is the processor count (default 4).
	NumProcs int
	// LeadProfile is the lead vehicle's speed profile (default sine).
	LeadProfile vehicle.SpeedProfile
	// InitSpeed is the follower's starting speed (default: profile
	// speed at t = 0).
	InitSpeed float64
	// InitGap is the initial gap to the lead vehicle in metres (default:
	// the desired gap at InitSpeed). Fleet platoons use it to set the
	// initial inter-vehicle spacing.
	InitGap float64
	// Loads optionally multiply task execution times over time windows,
	// on top of the obstacle profile (default none).
	Loads []TaskLoad
	// Obstacles maps time to detected-obstacle count. The default is
	// the paper's complex-scene episode: 11 obstacles normally (fusion
	// ≈ 20 ms) and 23 during t ∈ [10 s, 80 s) (fusion ≈ 40 ms, and the
	// obstacle-sensitive detection/tracking tasks inflate with it).
	Obstacles func(t float64) int
	// SpeedNoiseSD adds Gaussian noise to the perceived lead speed
	// (m/s; hardware emulation).
	SpeedNoiseSD float64
	// GapNoiseSD adds Gaussian noise to the perceived gap (m).
	GapNoiseSD float64
	// Longitudinal bounds the follower (default passenger car).
	Longitudinal vehicle.LongitudinalConfig
	// FollowerGains tunes the car-following law (default gains).
	FollowerGains vehicle.CarFollower
	// RateOverrides sets initial source rates by task name; each must
	// lie inside the task's allowable range.
	RateOverrides map[string]float64
	// VehicleStep is the dynamics integration step (default 10 ms).
	VehicleStep float64
	// SampleRate is the summary-series sample frequency in Hz
	// (default 1).
	SampleRate float64
	// Tracer optionally receives the engine's structured lifecycle
	// event stream (per-job timelines).
	Tracer lifecycle.Tracer
	// TrackGapError makes the coordinator track the gap error instead
	// of the speed error (the Fig. 16/17 responsiveness study).
	TrackGapError bool
	// GammaCap overrides the Dynamic scheduler's γ cap for ablation
	// studies (0 = default).
	GammaCap float64
	// DisableE2E removes the control task's explicit end-to-end deadline
	// (ablation: the external coordinator loses its latency signal).
	DisableE2E bool
	// MaxDataAge overrides the input-age validity bound: 0 = default
	// (DefaultMaxDataAge, 220 ms), negative = disabled (ablation:
	// auxiliary-task starvation becomes free).
	MaxDataAge simtime.Duration
	// Tunables sets the coordinator parameter set (γ cap, MFC window,
	// adapter gains, rate-band scales). Zero fields take the paper
	// defaults (core.DefaultTunables); the search subsystem explores this
	// space. A non-zero GammaCap field above wins over Tunables.GammaCap.
	Tunables core.Tunables
}

// DefaultCarFollowingObstacles is the paper's complex-scene episode — 11
// obstacles normally, 23 during t ∈ [10 s, 80 s) — the obstacle field a
// zero-valued CarFollowingConfig runs over. It is exported so the fleet
// layer can wrap the same shared field with per-follower coupling terms.
func DefaultCarFollowingObstacles(t float64) int {
	if t >= 10 && t < 80 {
		return 23
	}
	return 11
}

func (c *CarFollowingConfig) applyDefaults() error {
	if c.Scheme == 0 {
		return errors.New("scenario: no scheme selected")
	}
	if c.Duration == 0 {
		c.Duration = 90
	}
	if c.Duration <= 0 {
		return fmt.Errorf("scenario: non-positive duration %v", c.Duration)
	}
	if c.NumProcs == 0 {
		c.NumProcs = 2
	}
	if c.NumProcs < 1 {
		return fmt.Errorf("scenario: NumProcs %d < 1", c.NumProcs)
	}
	if c.LeadProfile == nil {
		c.LeadProfile = vehicle.SineProfile{Mean: 15, Amp: 5, Period: 7}
	}
	if c.InitSpeed == 0 {
		c.InitSpeed = c.LeadProfile.Speed(0)
	}
	if c.Obstacles == nil {
		c.Obstacles = DefaultCarFollowingObstacles
	}
	if c.Longitudinal == (vehicle.LongitudinalConfig{}) {
		// A stiff longitudinal plant: the residual tracking error is
		// then dominated by sensing-to-actuation staleness — the
		// quantity scheduling actually controls — not by plant lag.
		c.Longitudinal = vehicle.LongitudinalConfig{MaxAccel: 6, MaxBrake: 8, ActuatorTau: 0.1, MaxSpeed: 40}
	}
	if c.FollowerGains == (vehicle.CarFollower{}) {
		c.FollowerGains = vehicle.CarFollower{Kv: 5, Kg: 1, StandstillGap: 5, Headway: 1.2}
	}
	if c.RateOverrides == nil {
		c.RateOverrides = map[string]float64{
			"camera_front": 10, "camera_traffic_light": 8,
			"lidar_scan": 10, "radar_scan": 12,
		}
	}
	if c.VehicleStep == 0 {
		c.VehicleStep = DefaultVehicleStep
	}
	if c.VehicleStep <= 0 {
		return fmt.Errorf("scenario: non-positive vehicle step %v", c.VehicleStep)
	}
	if c.InitGap < 0 {
		return fmt.Errorf("scenario: negative initial gap %v", c.InitGap)
	}
	return nil
}

// loop maps the config onto the shared closed-loop kernel.
func (c *CarFollowingConfig) loop() loopConfig {
	return loopConfig{
		Graph:         GraphAD23,
		Scheme:        c.Scheme,
		Seed:          c.Seed,
		Duration:      c.Duration,
		NumProcs:      c.NumProcs,
		VehicleStep:   c.VehicleStep,
		SampleRate:    c.SampleRate,
		MaxDataAge:    c.MaxDataAge,
		GammaCap:      c.GammaCap,
		DisableE2E:    c.DisableE2E,
		Loads:         c.Loads,
		RateOverrides: c.RateOverrides,
		Obstacles:     c.Obstacles,
		Tracer:        c.Tracer,
		Tunables:      c.Tunables,
	}
}

// CarFollowingResult aggregates everything the paper reports for one
// car-following run.
type CarFollowingResult struct {
	// Scheme is the scheme that produced this result.
	Scheme Scheme
	// Rec holds the recorded time series: lead_speed, follow_speed,
	// speed_err, dist_err, gap, miss_ratio, throughput, response_ms,
	// discomfort, and for HCPerf schemes gamma and u.
	Rec *trace.Recorder
	// SpeedErrRMS is the RMS speed tracking error (Table II / V).
	SpeedErrRMS float64
	// DistErrRMS is the RMS distance tracking error (Table III / VI).
	DistErrRMS float64
	// Miss holds per-second deadline accounting (Fig. 13(d) / 15(d)).
	Miss *metrics.MissBuckets
	// EngineStats is the engine's final counter snapshot.
	EngineStats engine.Stats
	// Collision reports a gap <= 0 event and its time.
	Collision   bool
	CollisionAt float64
	// MeanResponse is the mean control-command response time (s).
	MeanResponse float64
	// Throughput is control commands per second over the run.
	Throughput float64
	// Overhead is the coordinator's own wall-clock cost per step
	// (HCPerf schemes only; zero-valued otherwise).
	Overhead stats.Accumulator
	// WeaklyHard tracks the (1,10) weakly-hard constraint over *decided*
	// control jobs: at most one late command in any ten that ran.
	// (Cycles suppressed upstream never release a control job and are
	// visible in MaxCommandGap instead.)
	WeaklyHard *metrics.WeaklyHard
	// MaxCommandGap is the longest interval between consecutive control
	// commands (s) after the initial adjustment period (the first quarter
	// of the run, at most 20 s) — the actuator's worst steady-state
	// starvation stretch. (The paper notes HCPerf needs a brief
	// adjustment at start-up and after load changes; the window excludes
	// the start-up transient but includes the complex-scene adaptation.)
	MaxCommandGap float64
}

// carFollowPlant is the longitudinal car-following world: a lead vehicle
// on a speed profile and a follower driven by stale pipeline outputs.
type carFollowPlant struct {
	cfg   *CarFollowingConfig
	rec   *trace.Recorder
	noise *rand.Rand
	gains vehicle.CarFollower

	follower *vehicle.Longitudinal
	lead     *vehicle.Lead

	// Full-resolution world history for stale-perception lookups.
	histLeadSpeed, histLeadPos, histFolPos, histFolSpeed trace.Series

	weaklyHard *metrics.WeaklyHard
	discomfort *metrics.Discomfort
	collide    metrics.CollisionDetector

	// Per-second response-time accounting (Fig. 17(b)) and command-gap
	// tracking.
	respWindow     stats.Accumulator
	lastCmdAt      float64
	maxGap         float64
	gapWindowStart float64
	lastCmds       uint64
}

func newCarFollowPlant(cfg *CarFollowingConfig, rec *trace.Recorder) (*carFollowPlant, error) {
	p := &carFollowPlant{
		cfg:            cfg,
		rec:            rec,
		noise:          rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		gains:          cfg.FollowerGains,
		gapWindowStart: math.Min(20, cfg.Duration/4),
	}
	var err error
	if p.follower, err = vehicle.NewLongitudinal(cfg.Longitudinal); err != nil {
		return nil, err
	}
	p.follower.Speed = cfg.InitSpeed
	gap0 := cfg.InitGap
	if gap0 == 0 {
		gap0 = cfg.FollowerGains.StandstillGap + cfg.FollowerGains.Headway*cfg.InitSpeed
	}
	if p.lead, err = vehicle.NewLead(cfg.LeadProfile, gap0); err != nil {
		return nil, err
	}
	if err := p.recordHistory(0); err != nil {
		return nil, err
	}
	if p.weaklyHard, err = metrics.NewWeaklyHard(1, 10); err != nil {
		return nil, err
	}
	if p.discomfort, err = metrics.NewDiscomfort(200); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *carFollowPlant) recordHistory(now float64) error {
	if err := p.histLeadSpeed.Add(now, p.lead.Speed()); err != nil {
		return err
	}
	if err := p.histLeadPos.Add(now, p.lead.Position); err != nil {
		return err
	}
	if err := p.histFolSpeed.Add(now, p.follower.Speed); err != nil {
		return err
	}
	return p.histFolPos.Add(now, p.follower.Position)
}

func (p *carFollowPlant) Perceive(cmd engine.ControlCommand) {
	at := float64(cmd.SourceTime)
	if leadSpd, ok := p.histLeadSpeed.At(at); ok {
		leadPos, _ := p.histLeadPos.At(at)
		folPos, _ := p.histFolPos.At(at)
		folSpd, _ := p.histFolSpeed.At(at)
		if p.cfg.SpeedNoiseSD > 0 {
			leadSpd += p.noise.NormFloat64() * p.cfg.SpeedNoiseSD
		}
		gap := leadPos - folPos
		if p.cfg.GapNoiseSD > 0 {
			gap += p.noise.NormFloat64() * p.cfg.GapNoiseSD
		}
		// The planner computes the command from the pipeline's input
		// snapshot — ego state included — so the full sensing-to-
		// actuation latency sits inside the control loop, exactly the
		// quantity scheduling controls.
		p.follower.SetAccelCommand(p.gains.Accel(folSpd, leadSpd, gap))
	}
	p.respWindow.Add(float64(cmd.ResponseTime()))
	if gap := float64(cmd.Completed) - p.lastCmdAt; gap > p.maxGap && float64(cmd.Completed) >= p.gapWindowStart {
		p.maxGap = gap
	}
	p.lastCmdAt = float64(cmd.Completed)
}

func (p *carFollowPlant) JobDecided(j *sched.Job, missed bool) {
	if j.Task.IsControl {
		p.weaklyHard.Note(missed)
	}
}

func (p *carFollowPlant) TrackingError(simtime.Time) float64 {
	if p.cfg.TrackGapError {
		desired := p.gains.StandstillGap + p.gains.Headway*p.follower.Speed
		return math.Abs(desired - (p.lead.Position - p.follower.Position))
	}
	return math.Abs(p.lead.Speed() - p.follower.Speed)
}

func (p *carFollowPlant) CoordSample(now simtime.Time, e, u, gamma float64) {
	recAdd(p.rec, "tracking_err_sample", float64(now), e)
	recAdd(p.rec, "u", float64(now), u)
	recAdd(p.rec, "gamma", float64(now), gamma)
}

func (p *carFollowPlant) Step(now float64) {
	step := p.cfg.VehicleStep
	if err := p.lead.Step(step); err != nil {
		panic(fmt.Sprintf("scenario: lead step: %v", err))
	}
	if err := p.follower.Step(step); err != nil {
		panic(fmt.Sprintf("scenario: follower step: %v", err))
	}
	if err := p.recordHistory(now); err != nil {
		panic(fmt.Sprintf("scenario: history: %v", err))
	}
	gap := p.lead.Position - p.follower.Position
	desired := p.gains.StandstillGap + p.gains.Headway*p.follower.Speed
	p.collide.Note(now, gap)
	if err := p.discomfort.Note(now, p.follower.Accel()); err != nil {
		panic(fmt.Sprintf("scenario: discomfort: %v", err))
	}
	recAdd(p.rec, "lead_speed", now, p.lead.Speed())
	recAdd(p.rec, "follow_speed", now, p.follower.Speed)
	recAdd(p.rec, "speed_err", now, p.lead.Speed()-p.follower.Speed)
	recAdd(p.rec, "gap", now, gap)
	recAdd(p.rec, "dist_err", now, gap-desired)
}

func (p *carFollowPlant) Sample(t float64, env *Env) {
	cmds := env.Eng.Stats().ControlCommands
	recAdd(p.rec, "throughput", t, float64(cmds-p.lastCmds))
	p.lastCmds = cmds
	recAdd(p.rec, "response_ms", t, p.respWindow.Mean()*1000)
	p.respWindow.Reset()
	recAdd(p.rec, "discomfort", t, p.discomfort.Index())
	recAdd(p.rec, "miss_ratio", t, env.Miss.Ratio(int(t)-1))
	recAdd(p.rec, "queue_len", t, float64(env.Eng.QueueLen()))
	recAdd(p.rec, "utilization", t, env.Eng.Utilization())
	recAdd(p.rec, "rate_camera", t, env.Eng.SourceRate(env.Graph.TaskByName("camera_front").ID))
	recAdd(p.rec, "rate_lidar", t, env.Eng.SourceRate(env.Graph.TaskByName("lidar_scan").ID))
}

// CarFollowingRun is one car-following closed loop attached to an external
// event queue but not yet run to completion. The fleet layer attaches many
// of these to one shared queue; the live accessors expose exactly the state
// neighbouring vehicles may observe (V2X-style coupling), and Finish
// collects the result once the owning queue has reached the run's duration.
type CarFollowingRun struct {
	cfg CarFollowingConfig
	a   *attachedLoop
	p   *carFollowPlant
}

// AttachCarFollowing validates cfg, applies its defaults and wires one
// car-following closed loop onto q without running it. The caller owns the
// queue and decides how far to advance it; the attached loop's events are
// interleaved deterministically with everything else scheduled on q.
func AttachCarFollowing(q *simtime.EventQueue, cfg CarFollowingConfig) (*CarFollowingRun, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	var p *carFollowPlant
	a, err := attachLoop(q, cfg.loop(), func(rec *trace.Recorder) (Plant, error) {
		var err error
		p, err = newCarFollowPlant(&cfg, rec)
		return p, err
	})
	if err != nil {
		return nil, err
	}
	return &CarFollowingRun{cfg: cfg, a: a, p: p}, nil
}

// Duration returns the run's defaulted duration in seconds — how far the
// owning queue must be advanced before Finish.
func (r *CarFollowingRun) Duration() float64 { return r.cfg.Duration }

// FollowerSpeed returns the follower's current speed (m/s).
func (r *CarFollowingRun) FollowerSpeed() float64 { return r.p.follower.Speed }

// FollowerAccel returns the follower's current achieved acceleration
// (m/s^2, negative while braking) — the signal platoon coupling turns into
// follower-side obstacles.
func (r *CarFollowingRun) FollowerAccel() float64 { return r.p.follower.Accel() }

// Gap returns the current gap to the lead vehicle (m).
func (r *CarFollowingRun) Gap() float64 { return r.p.lead.Position - r.p.follower.Position }

// TrackingError returns the plant's current tracking error — the quantity
// the coordinator regulates and the fleet layer aggregates.
func (r *CarFollowingRun) TrackingError(now simtime.Time) float64 { return r.p.TrackingError(now) }

// Rec returns the run's series recorder (live; fully populated only after
// the owning queue reached Duration).
func (r *CarFollowingRun) Rec() *trace.Recorder { return r.a.rec }

// Finish collects the run's result. It must be called only after the owning
// queue has been advanced to at least Duration.
func (r *CarFollowingRun) Finish() *CarFollowingResult {
	out := r.a.finish()
	p, cfg := r.p, &r.cfg
	res := &CarFollowingResult{
		Scheme:        cfg.Scheme,
		Rec:           out.Rec,
		Miss:          out.Miss,
		EngineStats:   out.EngineStats,
		Collision:     p.collide.Collided(),
		CollisionAt:   p.collide.At(),
		WeaklyHard:    p.weaklyHard,
		MaxCommandGap: p.maxGap,
		Overhead:      out.Overhead,
	}
	res.SpeedErrRMS = out.Rec.Series("speed_err").RMS(0, cfg.Duration)
	res.DistErrRMS = out.Rec.Series("dist_err").RMS(0, cfg.Duration)
	res.MeanResponse = out.EngineStats.ControlResponse.Mean()
	res.Throughput = float64(out.EngineStats.ControlCommands) / cfg.Duration
	return res
}

// RunCarFollowing executes one car-following run and returns its result.
func RunCarFollowing(cfg CarFollowingConfig) (*CarFollowingResult, error) {
	q := simtime.NewEventQueue()
	r, err := AttachCarFollowing(q, cfg)
	if err != nil {
		return nil, err
	}
	if err := q.RunUntil(simtime.Time(r.cfg.Duration)); err != nil {
		return nil, err
	}
	return r.Finish(), nil
}
