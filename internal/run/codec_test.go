package run

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"hcperf/internal/experiment"
	"hcperf/internal/search"
	"hcperf/internal/trace"
)

// mustDigest renders a report digest or fails the test.
func mustDigest(t *testing.T, rep *experiment.Report) string {
	t.Helper()
	d, err := rep.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCodecRoundTripPreservesReportDigest(t *testing.T) {
	// A real traced scenario run: rows, a populated series recorder and
	// lifecycle events all at once. The disk round trip must preserve the
	// report digest byte for byte — that is what makes a disk hit
	// indistinguishable from a recomputation.
	req, err := Request{Scenario: "carfollow", Scheme: "edf", Duration: 2, Trace: true}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Series == nil || len(res.Events) == 0 {
		t.Fatal("fixture run produced no series or no events; round trip would be vacuous")
	}
	digest := req.Digest()
	data, err := EncodeResult(digest, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(digest, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustDigest(t, back.Report), mustDigest(t, res.Report); got != want {
		t.Errorf("report digest after round trip = %s, want %s", got[:12], want[:12])
	}
	if !reflect.DeepEqual(back.Events, res.Events) {
		t.Errorf("lifecycle events changed across round trip: %d vs %d", len(back.Events), len(res.Events))
	}
	if !reflect.DeepEqual(back.Report.Series.Names(), res.Report.Series.Names()) {
		t.Errorf("series names changed: %v vs %v", back.Report.Series.Names(), res.Report.Series.Names())
	}
}

func TestCodecRoundTripExperimentReport(t *testing.T) {
	// Registry experiments carry paper rows and notes and (for figures) a
	// series recorder; fig5 exercises all of them.
	req, err := Request{Experiment: "fig5"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	digest := req.Digest()
	data, err := EncodeResult(digest, res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(digest, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustDigest(t, back.Report), mustDigest(t, res.Report); got != want {
		t.Errorf("report digest after round trip = %s, want %s", got[:12], want[:12])
	}
}

func TestCodecRoundTripOptimizeReport(t *testing.T) {
	rep := &experiment.Report{ID: "optimize-carfollow", Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	opt := &search.Report{
		Strategy:   "random",
		Seed:       1,
		Seeds:      2,
		Budget:     4,
		Evaluated:  4,
		Objectives: []string{"pathtrack_rms"},
		Best: []search.BestEntry{{
			Objective: "pathtrack_rms", Value: 0.5, Baseline: 0.75, Improved: true,
			Candidate: search.Candidate{Scheme: "hcperf"},
		}},
	}
	res := &Result{Report: rep, Optimize: opt}
	data, err := EncodeResult("d0", res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult("d0", data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Optimize, opt) {
		t.Errorf("optimize report changed across round trip:\n got %+v\nwant %+v", back.Optimize, opt)
	}
}

// seal prefixes body with a valid header line.
func seal(body []byte) []byte {
	return append(appendHeader(nil, crc32.Checksum(body, castagnoli)), body...)
}

// reseal rewrites an entry's header line with a valid one for its body, so
// an edit made behind the header reaches the structural checks instead of
// failing the checksum.
func reseal(data []byte) []byte {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return data
	}
	return seal(data[nl+1:])
}

// entryParts splits an encoded entry into its JSON line and sample blocks.
func entryParts(t *testing.T, data []byte) (line, blocks []byte) {
	t.Helper()
	body := data[headerLen:]
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		t.Fatal("entry has no envelope line")
	}
	return body[:nl], body[nl+1:]
}

// join assembles and seals an entry from a JSON line and sample blocks.
func join(line, blocks []byte) []byte {
	return seal(append(append(append([]byte(nil), line...), '\n'), blocks...))
}

func TestCodecRejectsCorruptEntries(t *testing.T) {
	rec := trace.NewRecorder()
	for i, p := range []struct {
		name string
		t, v float64
	}{{"a", 0, 1}, {"a", 1, 2}, {"a", 2, 3}, {"b", 0, 5}, {"b", 1, 6}} {
		if err := rec.Add(p.name, p.t, p.v); err != nil {
			t.Fatal(i, err)
		}
	}
	rep := &experiment.Report{ID: "x", Title: "x", Series: rec}
	good, err := EncodeResult("deadbeef", &Result{Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResult("deadbeef", good); err != nil {
		t.Fatalf("fixture does not decode: %v", err)
	}
	line, blocks := entryParts(t, good)
	flip := func(off int) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= 0x20
		return b
	}
	// editSeries re-marshals the JSON line with its series list edited.
	editSeries := func(edit func([]seriesJSON) []seriesJSON) []byte {
		var env envelope
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatal(err)
		}
		env.Report.Series = edit(env.Report.Series)
		l, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return join(l, blocks)
	}
	backwards := append([]byte(nil), blocks...)
	binary.LittleEndian.PutUint64(backwards[sampleBytes:], math.Float64bits(-1)) // a's second time
	v1 := []byte(`{"v":1,"digest":"deadbeef","report":{"id":"x","title":"x"}}`)

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"garbage", []byte("not json at all"), "decode"},
		{"truncated", good[:len(good)/2], "decode"},
		{"wrong digest", good, "stored under"},
		{"empty object", []byte("{}"), "version"},
		{"v1 entry", v1, "version"},
		{"other version", bytes.Replace(good, []byte(" v2 "), []byte(" v3 "), 1), "version 3, want 2"},
		{"flipped json byte", flip(headerLen + bytes.Index(line, []byte(`"x"`)) + 1), "checksum"},
		{"flipped sample byte", flip(len(good) - 3), "checksum"},
		{"unsealed truncation", good[:len(good)-8], "checksum"},
		{"block truncated by 8", join(line, blocks[:len(blocks)-8]), `"b" claims 2 samples, 24 bytes left`},
		{"trailing byte", join(line, append(append([]byte(nil), blocks...), 0)), "1 trailing bytes"},
		{"n too large", editSeries(func(s []seriesJSON) []seriesJSON { s[0].N = 6; return s }), `"a" claims 6 samples, 80 bytes left`},
		{"negative n", editSeries(func(s []seriesJSON) []seriesJSON { s[0].N = -1; return s }), `"a" claims -1 samples`},
		{"duplicate name", editSeries(func(s []seriesJSON) []seriesJSON { s[1].Name = "a"; return s }), `"a" listed twice`},
		{"empty name", editSeries(func(s []seriesJSON) []seriesJSON { s[1].Name = ""; return s }), "empty name"},
		{"series without has_series", reseal(bytes.Replace(good, []byte(`"has_series":true,`), nil, 1)), "without has_series"},
		{"backwards time", join(line, backwards), `"a" time -1 before 0`},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			digest := "deadbeef"
			if tt.name == "wrong digest" {
				digest = "cafebabe"
			}
			_, err := DecodeResult(digest, tt.data)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("DecodeResult err = %v, want containing %q", err, tt.want)
			}
		})
	}
}

// TestCodecRoundTripNonFiniteSamples: samples are stored as their bits, so
// NaN, ±Inf, −0 and subnormals — which JSON cannot carry — round trip
// bit for bit and the report digest is unchanged.
func TestCodecRoundTripNonFiniteSamples(t *testing.T) {
	rec := trace.NewRecorder()
	negZero := math.Copysign(0, -1)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero, math.SmallestNonzeroFloat64, 2.5e-310} {
		if err := rec.Add("odd", float64(i/2), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Add("times", negZero, 1); err != nil {
		t.Fatal(err)
	}
	if err := rec.Add("times", math.Inf(1), 2); err != nil {
		t.Fatal(err)
	}
	rep := &experiment.Report{ID: "nonfinite", Title: "t", Series: rec}
	data, err := EncodeResult("d0", &Result{Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult("d0", data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustDigest(t, back.Report), mustDigest(t, rep); got != want {
		t.Errorf("report digest after round trip = %s, want %s", got[:12], want[:12])
	}
	for _, name := range rec.Names() {
		want, got := rec.Series(name).Samples, back.Report.Series.Series(name).Samples
		if len(got) != len(want) {
			t.Fatalf("series %q: %d samples, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i].T) != math.Float64bits(want[i].T) || math.Float64bits(got[i].V) != math.Float64bits(want[i].V) {
				t.Errorf("series %q sample %d = %v, want %v (bitwise)", name, i, got[i], want[i])
			}
		}
	}
}

func TestCodecNilVersusEmptySeries(t *testing.T) {
	// A nil recorder and an empty recorder digest differently (the empty
	// one hashes a CSV header), so the codec must preserve the distinction.
	nilRep := &experiment.Report{ID: "x", Title: "x"}
	emptyRep := &experiment.Report{ID: "x", Title: "x", Series: trace.NewRecorder()}
	if mustDigest(t, nilRep) == mustDigest(t, emptyRep) {
		t.Fatal("fixture invalid: nil and empty recorders digest equally")
	}
	for _, rep := range []*experiment.Report{nilRep, emptyRep} {
		data, err := EncodeResult("d0", &Result{Report: rep})
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeResult("d0", data)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustDigest(t, back.Report), mustDigest(t, rep); got != want {
			t.Errorf("digest after round trip = %s, want %s (series nil=%t)",
				got[:12], want[:12], rep.Series == nil)
		}
	}
}

// executeFixture runs a request for a codec fixture.
func executeFixture(tb testing.TB, req Request) *Result {
	tb.Helper()
	req, err := req.Normalize()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := Execute(context.Background(), req)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// FuzzDecodeResult feeds arbitrary bytes to the decoder, both as given and
// resealed with a valid header so edits behind the checksum reach the
// structural checks. Decoding must never panic, and whatever decodes must
// re-encode to an entry that decodes to the same report digest.
func FuzzDecodeResult(f *testing.F) {
	for _, res := range []*Result{
		executeFixture(f, Request{Scenario: "carfollow", Scheme: "edf", Duration: 0.05, Trace: true}),
		executeFixture(f, Request{Experiment: "fig5"}),
		{Report: &experiment.Report{ID: "empty", Title: "t", Series: trace.NewRecorder()}},
	} {
		data, err := EncodeResult("d0", res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			res, err := DecodeResult("d0", in)
			if err != nil {
				continue
			}
			want := mustDigest(t, res.Report)
			again, err := EncodeResult("d0", res)
			if err != nil {
				t.Fatalf("decoded entry does not re-encode: %v", err)
			}
			back, err := DecodeResult("d0", again)
			if err != nil {
				t.Fatalf("re-encoded entry does not decode: %v", err)
			}
			if got := mustDigest(t, back.Report); got != want {
				t.Fatalf("report digest %s after re-encoding, want %s", got, want)
			}
		}
	})
}

// BenchmarkCodec times the disk codec on a 5 s edf result and on a 90 s
// hcperf result, the largest common single-vehicle entry.
func BenchmarkCodec(b *testing.B) {
	for _, fx := range []struct {
		name string
		req  Request
	}{
		{"edf-5s", Request{Scenario: "carfollow", Scheme: "edf", Duration: 5}},
		{"hcperf-90s", Request{Scenario: "carfollow", Scheme: "hcperf", Duration: 90}},
	} {
		res := executeFixture(b, fx.req)
		data, err := EncodeResult("d0", res)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+fx.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeResult("d0", res); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+fx.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeResult("d0", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
