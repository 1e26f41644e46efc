package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestRefusedSubmissionsFail(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInternalServerError} {
		for _, wantHit := range []bool{false, true} {
			if err := checkSubmit(code, "", wantHit); !errors.Is(err, errRefused) {
				t.Errorf("status %d (wantHit %t): err %v, want errRefused", code, wantHit, err)
			}
		}
	}
}

func TestSubmissionTierIsChecked(t *testing.T) {
	cases := []struct {
		code    int
		cache   string
		wantHit bool
		ok      bool
	}{
		{http.StatusAccepted, "miss", false, true},
		{http.StatusOK, "memory", false, false}, // a cold request must never hit
		{http.StatusOK, "memory", true, true},
		{http.StatusOK, "disk", true, true},
		{http.StatusAccepted, "miss", true, false}, // a hot request must never execute
		{http.StatusOK, "", true, false},
	}
	for _, c := range cases {
		if err := checkSubmit(c.code, c.cache, c.wantHit); (err == nil) != c.ok {
			t.Errorf("checkSubmit(%d, %q, %t) = %v, want ok=%t", c.code, c.cache, c.wantHit, err, c.ok)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.op(nil)
	tl.op(errors.New("mismatch"))
	tl.op(nil)
	if tl.attempted != 3 || tl.failed != 1 {
		t.Fatalf("tally %d attempted / %d failed, want 3 / 1", tl.attempted, tl.failed)
	}
}

// fakeServer answers every POST /v1/runs with code, cache tier and digest.
func fakeServer(t *testing.T, code int, cache, digest string) *client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-HCPerf-Cache", cache)
		w.WriteHeader(code)
		_, _ = w.Write([]byte(`{"id": "abc", "state": "done", "report_digest": "` + digest + `"}`))
	}))
	t.Cleanup(ts.Close)
	return &client{hc: ts.Client(), base: ts.URL}
}

func TestPlantedDigestMismatchFailsTheHit(t *testing.T) {
	var tl tally
	c := fakeServer(t, http.StatusOK, "memory", "planted")
	tl.op(hit(context.Background(), c, []byte(`{}`), "recorded", 1, nil))
	if tl.failed != 1 {
		t.Fatal("a hit answering a digest other than the recorded one passed the check")
	}
	c = fakeServer(t, http.StatusOK, "disk", "recorded")
	tl.op(hit(context.Background(), c, []byte(`{}`), "recorded", 2, nil))
	if tl.attempted != 2 || tl.failed != 1 {
		t.Fatalf("tally %d / %d after one good hit, want 2 / 1", tl.attempted, tl.failed)
	}
}

func TestRefusedOrMissedHitCountsAsFailed(t *testing.T) {
	for _, fake := range []struct {
		code  int
		cache string
	}{
		{http.StatusTooManyRequests, ""},
		{http.StatusServiceUnavailable, ""},
		{http.StatusAccepted, "miss"},
	} {
		var tl tally
		tiers := make(map[string]int)
		c := fakeServer(t, fake.code, fake.cache, "recorded")
		tl.op(hit(context.Background(), c, []byte(`{}`), "recorded", 1, tiers))
		if tl.failed != 1 {
			t.Errorf("answer %d %q counted as a good hit", fake.code, fake.cache)
		}
	}
}

func TestCheckDigest(t *testing.T) {
	if checkDigest("x", "a", "a") != nil {
		t.Error("equal digests failed")
	}
	if checkDigest("x", "a", "b") == nil {
		t.Error("a planted mismatch passed")
	}
	if checkDigest("x", "", "") == nil {
		t.Error("a missing digest passed")
	}
}

func TestGrew(t *testing.T) {
	flat := []float64{1, 2, 1, 2, 1, 2, 1, 2, 1}
	rising := []float64{0, 0, 0, 1, 2, 3, 5, 6, 7}
	if grew(flat, 1) {
		t.Error("a flat series grew")
	}
	if !grew(rising, 1) {
		t.Error("a rising series did not grow")
	}
	if grew([]float64{0, 100}, 1) {
		t.Error("a series too short to split grew")
	}
}
