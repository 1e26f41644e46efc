package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSameSeedGivesByteIdenticalInputs(t *testing.T) {
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		if a, b := fleetSpecJSON(seed), fleetSpecJSON(seed); !bytes.Equal(a, b) {
			t.Errorf("seed %d: fleet spec differs between generations:\n%s\n%s", seed, a, b)
		}
		for name, gen := range map[string]func() [][]byte{
			"cold": func() [][]byte { w, b := coldBodies(seed, 300); return append(w, b...) },
			"hot":  func() [][]byte { w, b := hotBodies(seed); return append(w, b...) },
		} {
			a, b := gen(), gen()
			if len(a) != len(b) {
				t.Fatalf("seed %d %s: %d vs %d bodies", seed, name, len(a), len(b))
			}
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Errorf("seed %d %s body %d differs: %s vs %s", seed, name, i, a[i], b[i])
				}
			}
		}
	}
	if bytes.Equal(fleetSpecJSON(1), fleetSpecJSON(2)) {
		t.Error("seeds 1 and 2 give the same fleet spec")
	}
	_, a := coldBodies(1, 1)
	_, b := coldBodies(2, 1)
	if bytes.Equal(a[0], b[0]) {
		t.Error("seeds 1 and 2 give the same first serve-cold request")
	}
}

func bodySeeds(t *testing.T, bodies [][]byte) []int64 {
	t.Helper()
	out := make([]int64, len(bodies))
	for i, b := range bodies {
		var rb runBody
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rb); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if rb.Seed <= 0 {
			t.Fatalf("body %d: seed %d is not positive", i, rb.Seed)
		}
		out[i] = rb.Seed
	}
	return out
}

func TestColdSeedsNeverRepeatWithinARun(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99} {
		// 60 s at 15/s is twice the run length the benchmark uses.
		warm, timed := coldBodies(seed, 900)
		seen := make(map[int64]int)
		for i, s := range bodySeeds(t, append(warm, timed...)) {
			if j, dup := seen[s]; dup {
				t.Fatalf("workload seed %d: requests %d and %d share run seed %d", seed, j, i, s)
			}
			seen[s] = i
		}
	}
}

func TestHotWorkingSetIsDistinct(t *testing.T) {
	warm, set := hotBodies(5)
	if len(set) != hotSetSize || len(warm) != warmups {
		t.Fatalf("working set has %d entries and %d warm-ups, want %d and %d", len(set), len(warm), hotSetSize, warmups)
	}
	seeds := bodySeeds(t, append(warm, set...))
	seen := make(map[int64]bool)
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("working set or warm-up repeats run seed %d", s)
		}
		seen[s] = true
	}
}

func TestSampleIndices(t *testing.T) {
	got := sampleIndices(4, 300, 16)
	if len(got) != 16 {
		t.Fatalf("got %d indices, want 16", len(got))
	}
	for i, v := range got {
		if v < 0 || v >= 300 || (i > 0 && v <= got[i-1]) {
			t.Fatalf("indices not distinct, ascending and in range: %v", got)
		}
	}
	if n := len(sampleIndices(4, 5, 16)); n != 5 {
		t.Fatalf("k above n gave %d indices, want 5", n)
	}
}
