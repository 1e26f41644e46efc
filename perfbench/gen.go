package main

import (
	"encoding/json"
	"fmt"
)

// Workload inputs are a pure function of the --seed argument. The program
// under test only ever sees the generated documents: a spec file for
// fleet-platoon (decoded the way hcperf-sim -spec decodes one) and POST
// bodies for the serve workloads.
const (
	fleetVehicles = 256
	fleetDuration = 12.0 // simulated seconds per fleet-platoon run
	// setupDuration is the shortest duration a car-following run accepts:
	// one vehicle step. Shorter runs are rejected by a panic in the
	// scenario's Finish, so a fleet run of this length is all set-up.
	setupDuration = 0.01

	coldRate     = 15.0 // serve-cold open-loop requests per second
	coldDuration = 90.0 // the paper's complex-scene car-following episode

	hotSetSize  = 256 // twice the service's default 128-entry memory LRU
	hotDuration = 5.0
)

// Seed streams keep the workloads' inputs independent of each other.
const (
	streamFleet = iota + 1
	streamCold
	streamHot
	streamSample
)

// splitmix64 is the SplitMix64 output function (Steele et al., 2014).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamValue is the i-th 64-bit value of one named stream of seed.
func streamValue(seed int64, stream, i uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^splitmix64(stream)) + i)
}

// runSeeds returns n distinct positive run seeds drawn from one stream.
func runSeeds(seed int64, stream uint64, n int) []int64 {
	out := make([]int64, 0, n)
	seen := make(map[int64]bool, n)
	for i := uint64(0); len(out) < n; i++ {
		s := int64(streamValue(seed, stream, i)>>33) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// fleetSpecJSON is the fleet-platoon input: a spec document with the shape
// of examples/specs/platoon-fleet.json and a seed drawn from seed.
func fleetSpecJSON(seed int64) []byte {
	return []byte(fmt.Sprintf(`{
  "name": "platoon-fleet",
  "scenario": "carfollow",
  "scheme": "hcperf",
  "seed": %d,
  "duration": %g,
  "fleet": {
    "n": %d,
    "coupling": "platoon",
    "spacing": 18,
    "brake_threshold": 2.0,
    "brake_obstacles": 14
  }
}
`, runSeeds(seed, streamFleet, 1)[0], fleetDuration, fleetVehicles))
}

// runBody is one POST /v1/runs body of the serve workloads.
type runBody struct {
	Scenario string  `json:"scenario"`
	Scheme   string  `json:"scheme"`
	Seed     int64   `json:"seed"`
	Duration float64 `json:"duration"`
}

func runBodies(scheme string, duration float64, seeds []int64) [][]byte {
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		b, err := json.Marshal(runBody{Scenario: "carfollow", Scheme: scheme, Seed: s, Duration: duration})
		if err != nil {
			panic(err) // a struct of plain values always marshals
		}
		out[i] = b
	}
	return out
}

// warmups is how many requests warm a server's code paths, caches and
// heap before its first timed request; they never repeat a timed one.
const warmups = 8

// coldBodies are n single-vehicle carfollow/hcperf runs over the 90 s
// episode, each with its own seed, so every one misses every cache tier,
// plus warmups more for the warm-up.
func coldBodies(seed int64, n int) (warm, timed [][]byte) {
	all := runBodies("hcperf", coldDuration, runSeeds(seed, streamCold, warmups+n))
	return all[:warmups], all[warmups:]
}

// hotBodies is the serve-hot working set of hotSetSize distinct 5 s
// carfollow/edf runs, plus warmups more for the warm-up.
func hotBodies(seed int64) (warm, set [][]byte) {
	all := runBodies("edf", hotDuration, runSeeds(seed, streamHot, warmups+hotSetSize))
	return all[:warmups], all[warmups:]
}

// sampleIndices picks k distinct indices below n, in ascending order, for
// the checks and probes that cost too much to apply to every operation.
func sampleIndices(seed int64, n, k int) []int {
	if k > n {
		k = n
	}
	picked := make(map[int]bool, k)
	for i := uint64(0); len(picked) < k; i++ {
		picked[int(streamValue(seed, streamSample, i)%uint64(n))] = true
	}
	out := make([]int, 0, k)
	for i := 0; i < n; i++ {
		if picked[i] {
			out = append(out, i)
		}
	}
	return out
}
