package service

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcperf/internal/store"
)

func openServiceDisk(t *testing.T, dir string) *store.Disk {
	t.Helper()
	d, err := store.OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskTierSurvivesRestart is the restart-persistence contract: a run
// completed by one manager is a disk hit — not a re-execution — in a fresh
// manager sharing the store directory, exactly the CLI-pre-warms-server
// flow.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")

	f1 := newFakeRunner(false)
	m1 := NewManager(ManagerConfig{Workers: 1, Run: f1.Run, Disk: openServiceDisk(t, dir)})
	j, outcome, err := m1.Submit(expReq(t, 1))
	if err != nil || outcome != SubmitNew {
		t.Fatalf("first submit = (%v, %v), want new", outcome, err)
	}
	snap := waitDone(t, j)
	if snap.State != StateDone || snap.Source != store.TierMemory {
		t.Fatalf("first run: state=%s source=%s, want done/memory", snap.State, snap.Source)
	}
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new manager, new runner, same directory.
	f2 := newFakeRunner(false)
	m2 := NewManager(ManagerConfig{Workers: 1, Run: f2.Run, Disk: openServiceDisk(t, dir)})
	defer func() {
		if err := m2.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	j2, outcome, err := m2.Submit(expReq(t, 1))
	if err != nil || outcome != SubmitCachedDisk {
		t.Fatalf("restarted submit = (%v, %v), want disk-cached", outcome, err)
	}
	snap2 := j2.Snapshot()
	if snap2.State != StateDone || snap2.Source != store.TierDisk {
		t.Fatalf("restored job: state=%s source=%s, want done/disk", snap2.State, snap2.Source)
	}
	if snap2.Result == nil || snap2.Result.Report.ID != "fig5" {
		t.Fatalf("restored result = %+v, want the fig5 report", snap2.Result)
	}
	if got := f2.executions.Load(); got != 0 {
		t.Errorf("restarted manager executed %d times, want 0 (disk hit)", got)
	}
	// The restored job is now memory-resident: a third submission is an
	// ordinary memory hit.
	if _, outcome, _ := m2.Submit(expReq(t, 1)); outcome != SubmitCached {
		t.Errorf("re-submit after restore = %v, want memory-cached", outcome)
	}
}

// TestMemoryEvictionFallsBackToDisk: a digest evicted from the in-memory
// LRU is restored from disk instead of re-executing.
func TestMemoryEvictionFallsBackToDisk(t *testing.T) {
	f := newFakeRunner(false)
	// Shards: 1 — eviction order across digests only holds in one shard.
	m := NewManager(ManagerConfig{
		Workers: 1, CacheSize: 1, Shards: 1, Run: f.Run,
		Disk: openServiceDisk(t, filepath.Join(t.TempDir(), "results")),
	})
	defer func() {
		if err := m.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	j1, _, err := m.Submit(expReq(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	j2, _, err := m.Submit(expReq(t, 2)) // evicts seed 1 from the memory tier
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)

	j3, outcome, err := m.Submit(expReq(t, 1))
	if err != nil || outcome != SubmitCachedDisk {
		t.Fatalf("evicted resubmit = (%v, %v), want disk-cached", outcome, err)
	}
	if snap := j3.Snapshot(); snap.Source != store.TierDisk {
		t.Errorf("source = %s, want disk", snap.Source)
	}
	if got := f.executions.Load(); got != 2 {
		t.Errorf("executions = %d, want 2 (eviction must not re-execute)", got)
	}
}

// TestFormatOneEntryQuarantinedOnce: an entry in the retired JSON-only
// format, stored under a request's digest, fails the codec's header check
// on the first POST. It is quarantined and counted corrupt, the run
// re-executes, and a restarted server answers the next POST from disk.
func TestFormatOneEntryQuarantinedOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	digest := expReq(t, 1).Digest()
	v1 := `{"v":1,"digest":"` + digest + `","report":{"id":"fig5","title":"fake","has_series":true,` +
		`"series":[{"name":"x","t":[0,1],"v":[2,3]}]}}`
	if err := openServiceDisk(t, dir).Put(digest, []byte(v1)); err != nil {
		t.Fatal(err)
	}

	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f.Run, Disk: openServiceDisk(t, dir)})
	code, st, hdr := postRun(t, ts, `{"experiment": "fig5", "seed": 1}`)
	if code != http.StatusAccepted || hdr.Get("X-HCPerf-Cache") != "miss" || st.ID != digest {
		t.Fatalf("first POST = (%d, %q, id %.12s), want 202/miss for %.12s", code, hdr.Get("X-HCPerf-Cache"), st.ID, digest)
	}
	job, _ := srv.Manager().Job(st.ID)
	<-job.Done()
	if got := f.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (the quarantined entry re-executes)", got)
	}
	if metrics := fetchMetrics(t, ts); !strings.Contains(metrics, "hcperf_store_corrupt_total 1") {
		t.Errorf("metrics missing hcperf_store_corrupt_total 1:\n%s", metrics)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", digest+".json")); err != nil {
		t.Errorf("old-format entry not quarantined: %v", err)
	}
	// Draining persists the re-executed result before the restart.
	if err := srv.Manager().Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	f2 := newFakeRunner(false)
	_, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f2.Run, Disk: openServiceDisk(t, dir)})
	code, st2, hdr := postRun(t, ts2, `{"experiment": "fig5", "seed": 1}`)
	if code != http.StatusOK || hdr.Get("X-HCPerf-Cache") != "disk" || st2.Cache != store.TierDisk {
		t.Fatalf("restarted POST = (%d, %q, cache %q), want 200/disk/disk", code, hdr.Get("X-HCPerf-Cache"), st2.Cache)
	}
	if got := f2.executions.Load(); got != 0 {
		t.Errorf("restarted server executed %d times, want 0", got)
	}
}

// TestCacheProvenance pins the X-HCPerf-Cache header and the `cache` JSON
// field across the miss → memory → disk lifecycle.
func TestCacheProvenance(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f.Run, Disk: openServiceDisk(t, dir)})

	code, st, hdr := postRun(t, ts, `{"experiment": "fig5"}`)
	if code != http.StatusAccepted || hdr.Get("X-HCPerf-Cache") != "miss" || st.Cache != store.TierMiss {
		t.Fatalf("fresh POST = (%d, header %q, cache %q), want 202/miss/miss",
			code, hdr.Get("X-HCPerf-Cache"), st.Cache)
	}
	job, _ := srv.Manager().Job(st.ID)
	<-job.Done()

	code, st2, hdr := postRun(t, ts, `{"experiment": "fig5"}`)
	if code != http.StatusOK || hdr.Get("X-HCPerf-Cache") != "memory" || st2.Cache != store.TierMemory {
		t.Fatalf("warm POST = (%d, header %q, cache %q), want 200/memory/memory",
			code, hdr.Get("X-HCPerf-Cache"), st2.Cache)
	}
	var got runStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+st.ID, &got); code != http.StatusOK || got.Cache != store.TierMemory {
		t.Fatalf("GET = (%d, cache %q), want 200/memory", code, got.Cache)
	}

	// A second server on the same store: the submission restores from
	// disk and says so.
	f2 := newFakeRunner(false)
	_, ts2 := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f2.Run, Disk: openServiceDisk(t, dir)})
	code, st3, hdr := postRun(t, ts2, `{"experiment": "fig5"}`)
	if code != http.StatusOK || hdr.Get("X-HCPerf-Cache") != "disk" || st3.Cache != store.TierDisk || !st3.Cached {
		t.Fatalf("disk POST = (%d, header %q, cache %q, cached %t), want 200/disk/disk/true",
			code, hdr.Get("X-HCPerf-Cache"), st3.Cache, st3.Cached)
	}
	if code := getJSON(t, ts2.URL+"/v1/runs/"+st3.ID, &got); code != http.StatusOK || got.Cache != store.TierDisk {
		t.Fatalf("disk GET = (%d, cache %q), want 200/disk", code, got.Cache)
	}
}

// TestStoreMetricsExposition pins the per-tier hcperf_store_* families.
func TestStoreMetricsExposition(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	f := newFakeRunner(false)
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 8, Run: f.Run, Disk: openServiceDisk(t, dir)})

	_, st, _ := postRun(t, ts, `{"experiment": "fig5"}`)
	job, _ := srv.Manager().Job(st.ID)
	<-job.Done()
	postRun(t, ts, `{"experiment": "fig5"}`) // memory hit

	metrics := fetchMetrics(t, ts)
	for _, want := range []string{
		`hcperf_store_hits_total{tier="memory"} 1`,
		`hcperf_store_hits_total{tier="disk"} 0`,
		`hcperf_store_misses_total{tier="memory"} 1`,
		`hcperf_store_misses_total{tier="disk"} 1`,
		`hcperf_store_evictions_total{tier="memory"} 0`,
		`hcperf_store_evictions_total{tier="disk"} 0`,
		"hcperf_store_corrupt_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestNotFoundJSONEnvelope pins the uniform JSON 404: unknown job IDs on
// both job endpoints and arbitrary unknown paths all carry the apiError
// envelope.
func TestNotFoundJSONEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4, Run: newFakeRunner(false).Run})
	for _, path := range []string{
		"/v1/runs/0000000000000000000000000000000000000000000000000000000000000000",
		"/v1/optimize/deadbeef",
		"/v1/nope",
		"/totally/else",
		"/",
	} {
		t.Run(path, func(t *testing.T) {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
			}
			assertJSONError(t, resp)
		})
	}
}
