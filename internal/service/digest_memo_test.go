package service

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/run"
	"hcperf/internal/scenario"
	"hcperf/internal/store"
)

// wantReportDigest executes req afresh and returns Report.Digest() of the
// result: the value every rendering of that run must carry.
func wantReportDigest(t *testing.T, req RunRequest) string {
	t.Helper()
	req, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.Report.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStatusReportDigestAcrossTiers: the report_digest in a job's status
// equals Report.Digest() for a run the worker executed, for the same run
// restored from disk by a reopened store, and for a sweep-published cell.
func TestStatusReportDigestAcrossTiers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	body := `{"scenario": "carfollow", "scheme": "edf", "duration": 2}`
	want := wantReportDigest(t, RunRequest{Scenario: "carfollow", Scheme: "edf", Duration: 2})

	srv1, ts1 := newTestServer(t, Config{Workers: 1, QueueSize: 4, Disk: openServiceDisk(t, dir)})
	code, st, _ := postRun(t, ts1, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	j, ok := srv1.Manager().Job(st.ID)
	if !ok {
		t.Fatal("submitted job unknown")
	}
	<-j.Done()
	for i := 0; i < 2; i++ {
		var got runStatus
		if code := getJSON(t, ts1.URL+"/v1/runs/"+st.ID, &got); code != http.StatusOK || got.State != StateDone {
			t.Fatalf("GET = (%d, %s), want 200/done", code, got.State)
		}
		if got.Digest != want {
			t.Errorf("executed job GET %d: report_digest %s, want %s", i, got.Digest, want)
		}
	}
	if code, hit, _ := postRun(t, ts1, body); code != http.StatusOK || hit.Digest != want {
		t.Errorf("memory-hit POST = (%d, %s), want 200 with %s", code, hit.Digest, want)
	}
	// The worker persists after Done; draining the first server makes
	// sure the entry is on disk before the store is reopened.
	if err := srv1.Manager().Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 4, Disk: openServiceDisk(t, dir)})
	code, restored, _ := postRun(t, ts2, body)
	if code != http.StatusOK || restored.Cache != store.TierDisk {
		t.Fatalf("restarted POST = (%d, %s), want 200 from disk", code, restored.Cache)
	}
	if restored.Digest != want {
		t.Errorf("disk-restored POST: report_digest %s, want %s", restored.Digest, want)
	}
	var got runStatus
	if getJSON(t, ts2.URL+"/v1/runs/"+restored.ID, &got); got.Digest != want {
		t.Errorf("disk-restored GET: report_digest %s, want %s", got.Digest, want)
	}

	_, events := postSweep(t, ts2.URL, `{"template": {"scenario": "carfollow", "scheme": "edf", "duration": 1}, "grid": {"seed": [3]}}`)
	if len(events) != 3 {
		t.Fatalf("sweep events = %+v, want sweep, cell, done", events)
	}
	var cell sweepCellEvent
	if err := json.Unmarshal([]byte(events[1].data), &cell); err != nil {
		t.Fatal(err)
	}
	wantCell := wantReportDigest(t, RunRequest{Spec: cellSpec(t, `{"scenario": "carfollow", "scheme": "edf", "duration": 1, "seed": 3}`)})
	if cell.ReportDigest != wantCell {
		t.Errorf("sweep cell event: report_digest %s, want %s", cell.ReportDigest, wantCell)
	}
	if getJSON(t, ts2.URL+"/v1/runs/"+cell.ID, &got); got.Digest != wantCell {
		t.Errorf("sweep cell GET: report_digest %s, want %s", got.Digest, wantCell)
	}
}

// TestConcurrentGetsShareOneDigest: 32 concurrent GETs of one done job
// all render the same report digest. The job is restored from disk
// without a render, so the GETs race on the memo's first computation;
// run under -race.
func TestConcurrentGetsShareOneDigest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	req, err := RunRequest{Scenario: "carfollow", Scheme: "edf", Duration: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Report.Digest()
	if err != nil {
		t.Fatal(err)
	}
	disk := openServiceDisk(t, dir)
	if err := run.SaveDisk(disk, req.Digest(), res); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Disk: disk})
	j, outcome, err := srv.Manager().Submit(req)
	if err != nil || outcome != SubmitCachedDisk {
		t.Fatalf("Submit = (%v, %v), want a disk restore", outcome, err)
	}
	const n = 32
	got := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st runStatus
			if code := getJSON(t, ts.URL+"/v1/runs/"+j.ID, &st); code != http.StatusOK {
				t.Errorf("GET %d = %d", i, code)
			}
			got[i] = st.Digest
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Errorf("GET %d: report_digest %s, want %s", i, d, want)
		}
	}
}

// TestSubStepRunIs400: a run shorter than one vehicle step is refused at
// submission with the minimum named, instead of becoming a failed job.
func TestSubStepRunIs400(t *testing.T) {
	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Run: f.Run})
	for _, body := range []string{
		`{"scenario": "carfollow", "duration": 0.005}`,
		`{"spec": {"scenario": "lanekeep", "duration": 0.005}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error.Message, "the minimum is 0.01 s") {
			t.Errorf("%s: error body %+v (%v), want the minimum named", body, e, err)
		}
		resp.Body.Close()
	}
	if code, _, _ := postRun(t, ts, `{"scenario": "carfollow", "duration": 0.01}`); code != http.StatusAccepted {
		t.Errorf("one-step run = %d, want 202", code)
	}
	if got := srv.Manager().Metrics().Misses.Load(); got != 1 {
		t.Errorf("jobs created = %d, want 1 (only the one-step run)", got)
	}
}

// cellSpec decodes the spec a sweep cell runs.
func cellSpec(t *testing.T, js string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.DecodeSpec(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestWorkerWarmsDigestBeforeDone: the worker computes the report digest
// before the job turns done, so renders reuse it. The probe changes the
// report after Done; a digest computed at render time would see the
// change.
func TestWorkerWarmsDigestBeforeDone(t *testing.T) {
	var res *RunResult
	runFn := func(ctx context.Context, req RunRequest) (*RunResult, error) {
		res = &RunResult{Report: &experiment.Report{ID: req.Kind(), Title: "warm"}}
		return res, nil
	}
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Run: runFn})
	j, _, err := srv.Manager().Submit(expReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	want, err := res.Report.Digest()
	if err != nil {
		t.Fatal(err)
	}
	res.Report.Notes = []string{"changed after Done"}
	var st runStatus
	if getJSON(t, ts.URL+"/v1/runs/"+j.ID, &st); st.Digest != want {
		t.Errorf("report_digest %s, want the digest warmed before Done %s", st.Digest, want)
	}
}
