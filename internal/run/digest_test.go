package run

import (
	"context"
	"sync"
	"testing"

	"hcperf/internal/experiment"
)

// TestReportDigestMemoized pins the memo: the digest is computed on the
// first call and returned unchanged afterwards, even though the report
// behind it has since changed (which callers must not do; here it is the
// probe that shows no second computation happened).
func TestReportDigestMemoized(t *testing.T) {
	rep := &experiment.Report{ID: "x", Title: "memo", Notes: []string{"a"}}
	res := &Result{Report: rep}
	first, err := res.ReportDigest()
	if err != nil {
		t.Fatal(err)
	}
	if want := mustDigest(t, rep); first != want {
		t.Fatalf("ReportDigest = %s, want Report.Digest %s", first, want)
	}
	rep.Notes = append(rep.Notes, "b")
	if again, _ := res.ReportDigest(); again != first {
		t.Errorf("second ReportDigest = %s, want the memo %s", again, first)
	}
	if fresh := mustDigest(t, rep); fresh == first {
		t.Fatal("mutating Notes did not change Report.Digest; the probe is vacuous")
	}
}

// TestReportDigestConcurrent races first calls; run under -race.
func TestReportDigestConcurrent(t *testing.T) {
	req, err := Request{Scenario: "carfollow", Scheme: "edf", Duration: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := mustDigest(t, res.Report)
	var wg sync.WaitGroup
	got := make([]string, 16)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = res.ReportDigest()
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Errorf("caller %d got %s, want %s", i, d, want)
		}
	}
}

// TestReportDigestLazy: neither execution nor a disk decode pays the
// digest; it is computed only when asked for.
func TestReportDigestLazy(t *testing.T) {
	req, err := Request{Scenario: "carfollow", Scheme: "edf", Duration: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.digest != "" {
		t.Error("Execute computed the report digest eagerly")
	}
	data, err := EncodeResult(req.Digest(), res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(req.Digest(), data)
	if err != nil {
		t.Fatal(err)
	}
	if back.digest != "" {
		t.Error("DecodeResult computed the report digest eagerly")
	}
	if got, want := mustReportDigest(t, back), mustDigest(t, res.Report); got != want {
		t.Errorf("decoded ReportDigest = %s, want %s", got, want)
	}
}

func TestReportDigestNoReport(t *testing.T) {
	if _, err := (&Result{}).ReportDigest(); err == nil {
		t.Error("ReportDigest of a result without a report succeeded")
	}
}

func mustReportDigest(t *testing.T, res *Result) string {
	t.Helper()
	d, err := res.ReportDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
