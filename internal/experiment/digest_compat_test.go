package experiment

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"testing"

	"hcperf/internal/fleet"
	"hcperf/internal/scenario"
	"hcperf/internal/trace"
)

// frozenReportDigest is a byte-for-byte copy of Report.Digest as it stood
// before the series hash was streamed: fmt.Fprintf per cell, and the
// series CSV through encoding/csv. It is deliberately NOT refactored to
// share code with Report.Digest: it is the independent witness that every
// golden digest, every cached run's report_digest and perfbench's pinned
// fleet digest keep their bytes.
func frozenReportDigest(r *Report) (string, error) {
	h := sha256.New()
	put := func(field string, cells ...string) {
		fmt.Fprintf(h, "%s:%d;", field, len(cells))
		for _, c := range cells {
			fmt.Fprintf(h, "%d:%s;", len(c), c)
		}
	}
	put("id", r.ID)
	put("title", r.Title)
	put("header", r.Header...)
	if r.Volatile {
		put("rows", "volatile")
	} else {
		for _, row := range r.Rows {
			put("row", row...)
		}
	}
	for _, row := range r.PaperRows {
		put("paper", row...)
	}
	put("notes", r.Notes...)
	if r.Series != nil {
		if err := frozenWriteCSV(h, r.Series); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// frozenWriteCSV is the encoding/csv series export Recorder.WriteCSV
// replaced.
func frozenWriteCSV(w io.Writer, r *trace.Recorder) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "time", "value"}); err != nil {
		return err
	}
	for _, name := range r.Names() {
		for _, p := range r.Series(name).Samples {
			rec := []string{
				name,
				strconv.FormatFloat(p.T, 'g', -1, 64),
				strconv.FormatFloat(p.V, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// assertFrozen checks Report.Digest against the frozen reference and, when
// the report has series, Recorder.WriteCSV against encoding/csv.
func assertFrozen(t *testing.T, rep *Report) string {
	t.Helper()
	got, err := rep.Digest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := frozenReportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("%s: digest %s, frozen reference %s", rep.ID, got, want)
	}
	if rep.Series != nil {
		var stream, ref bytes.Buffer
		if err := rep.Series.WriteCSV(&stream); err != nil {
			t.Fatal(err)
		}
		if err := frozenWriteCSV(&ref, rep.Series); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream.Bytes(), ref.Bytes()) {
			t.Errorf("%s: WriteCSV differs from encoding/csv (%d vs %d bytes)", rep.ID, stream.Len(), ref.Len())
		}
	}
	return got
}

// TestDigestMatchesFrozenReference covers the report shapes the registry
// does not: a full 90 s car-following run, a fleet report, nil versus
// empty recorders and a volatile report. The 23 registry reports are
// checked against the same reference in TestGoldenDigests.
func TestDigestMatchesFrozenReference(t *testing.T) {
	if testing.Short() {
		t.Skip("90 s run")
	}
	cf, err := scenario.RunCarFollowing(scenario.CarFollowingConfig{Scheme: scenario.SchemeHCPerf, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertFrozen(t, &Report{ID: "carfollow-90s", Title: "car following", Header: []string{"quantity", "value"},
		Rows: [][]string{{"speed RMS (m/s)", fmt.Sprintf("%.4f", cf.SpeedErrRMS)}}, Series: cf.Rec})

	fl, err := fleet.RunSpec(scenario.Spec{Scenario: "carfollow", Duration: 5,
		Fleet: &scenario.FleetSpec{N: 8, Coupling: scenario.FleetCouplingPlatoon}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertFrozen(t, &Report{ID: "fleet", Title: fl.Title, Header: []string{"quantity", "value"}, Rows: fl.Rows, Series: fl.Rec})

	base := Report{ID: "x", Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}, Notes: []string{"n"}}
	noSeries := base
	empty := base
	empty.Series = trace.NewRecorder()
	if assertFrozen(t, &noSeries) == assertFrozen(t, &empty) {
		t.Error("nil and empty recorders share a digest; the empty one must hash the CSV header")
	}

	vol := base
	vol.Volatile = true
	volOther := vol
	volOther.Rows = [][]string{{"2"}}
	if assertFrozen(t, &vol) != assertFrozen(t, &volOther) {
		t.Error("volatile reports with different rows digest differently")
	}
}

// FuzzReportDigest drives Report.Digest and Recorder.WriteCSV with
// arbitrary series names, cells and sample values, including names
// encoding/csv must quote and NaN, ±Inf and -0 samples.
func FuzzReportDigest(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		a, b       string
		t, v, w, u float64
	}{
		{"speed_err", "gap", 0, 1.5, -2, 0.25},
		{"a,b", `q"uote`, 0.01, math.NaN(), math.Inf(1), math.Inf(-1)},
		{"cr\rlf\n", " lead", negZero, negZero, 1e21, 5e-324},
		{`\.`, "\tx", 1, math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789},
		{" nbsp", "\xff\xfe", 2, 0, 1, 2},
		{"", "ok", 3, 1, 2, 3},
	} {
		f.Add(seed.a, seed.b, seed.t, seed.v, seed.w, seed.u)
	}
	f.Fuzz(func(t *testing.T, a, b string, t0, v, w, u float64) {
		rec := trace.NewRecorder()
		// Add rejects empty names and backwards times; the recorder keeps
		// whatever it accepted, which is what both writers must agree on.
		_ = rec.Add(a, t0, v)
		_ = rec.Add(b, t0, w)
		_ = rec.Add(a, t0+1, u)
		_ = rec.Add(b, t0+1, v)
		rep := &Report{ID: a, Title: b, Header: []string{a, b}, Rows: [][]string{{b}, {a, a}},
			PaperRows: [][]string{{b}}, Notes: []string{a + b}, Series: rec}
		assertFrozen(t, rep)
		rep.Volatile = true
		assertFrozen(t, rep)
	})
}

// BenchmarkReportDigest times the digest of the serving layer's largest
// common report, a 90 s car-following run (~1.7 MB of series CSV), against
// the frozen encoding/csv reference.
func BenchmarkReportDigest(b *testing.B) {
	cf, err := scenario.RunCarFollowing(scenario.CarFollowingConfig{Scheme: scenario.SchemeHCPerf, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rep := &Report{ID: "carfollow-90s", Series: cf.Rec}
	for _, bm := range []struct {
		name   string
		digest func(*Report) (string, error)
	}{
		{"stream", (*Report).Digest},
		{"frozen", frozenReportDigest},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bm.digest(rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
