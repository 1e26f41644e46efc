package trace

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesAddOrdered(t *testing.T) {
	var s Series
	s.Name = "x"
	for _, tm := range []float64{0, 1, 1, 2} {
		if err := s.Add(tm, tm*2); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add(1.5, 0); err == nil {
		t.Error("backwards time accepted")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	vals := s.Values()
	if len(vals) != 4 || vals[3] != 4 {
		t.Errorf("Values = %v", vals)
	}
}

func TestSeriesRangeReductions(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		if err := s.Add(float64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Mean(0, 10); got != 4.5 {
		t.Errorf("Mean = %v, want 4.5", got)
	}
	if got := s.Mean(2, 4); got != 2.5 {
		t.Errorf("Mean(2,4) = %v, want 2.5", got)
	}
	wantRMS := math.Sqrt((4 + 9) / 2.0)
	if got := s.RMS(2, 4); math.Abs(got-wantRMS) > 1e-12 {
		t.Errorf("RMS(2,4) = %v, want %v", got, wantRMS)
	}
	if got := s.RMS(100, 200); got != 0 {
		t.Errorf("RMS on empty range = %v, want 0", got)
	}
	if got := s.MaxAbs(0, 10); got != 9 {
		t.Errorf("MaxAbs = %v, want 9", got)
	}
	if got := len(s.Slice(3, 6)); got != 3 {
		t.Errorf("Slice(3,6) has %d samples, want 3", got)
	}
}

func TestSeriesAt(t *testing.T) {
	var s Series
	for _, tm := range []float64{1, 2, 3} {
		if err := s.Add(tm, tm*10); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.At(0.5); ok {
		t.Error("At before first sample should report false")
	}
	if v, ok := s.At(2.5); !ok || v != 20 {
		t.Errorf("At(2.5) = %v,%v; want 20,true", v, ok)
	}
	if v, ok := s.At(3); !ok || v != 30 {
		t.Errorf("At(3) = %v,%v; want 30,true", v, ok)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	if err := r.Add("speed", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("speed", 1, 12); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("err", 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("", 0, 1); err == nil {
		t.Error("empty series name accepted")
	}
	if r.Series("speed").Len() != 2 {
		t.Error("series not recorded")
	}
	if r.Series("missing") != nil {
		t.Error("unknown series should be nil")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "speed" || names[1] != "err" {
		t.Errorf("Names = %v, want creation order", names)
	}
}

// TestRecorderOpen pins Open: it returns the series Add appends to, and a
// series it creates takes its place in creation order at the Open call.
func TestRecorderOpen(t *testing.T) {
	r := NewRecorder()
	if err := r.Add("a", 0, 1); err != nil {
		t.Fatal(err)
	}
	if r.Open("a") != r.Series("a") {
		t.Error("Open returned a different series than Add appended to")
	}
	b := r.Open("b")
	if err := r.Add("c", 0, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("Names = %v, want [a b c]", got)
	}
	if r.Series("b").Len() != 1 {
		t.Error("append through the opened series not recorded")
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	if err := r.Add("a", 0, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("b", 0.25, -2); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "series,time,value\na,0,1.5\nb,0.25,-2\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// TestWriteCSVMatchesEncodingCSV pins the streaming writer to
// encoding/csv's quoting rules for every kind of series name it quotes,
// on enough rows to cross several flush chunks, and its cached sample
// times to series that share, partly share and leave a time grid.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	names := []string{"plain", "a,b", `say "hi"`, "cr\rlf\n", " lead", "\tlead", "\u00a0nbsp", `\.`, `\.x`, "\xff", "über"}
	r := NewRecorder()
	n := 4 * csvChunk / len(names)
	for i := 0; i < n; i++ {
		for j, name := range names {
			if err := r.Add(name, float64(i)*0.01, float64(i*j)/7); err != nil {
				t.Fatal(err)
			}
		}
		// Off the grid at odd indices, then back on it.
		if err := r.Add("shifted", float64(i)*0.01+0.005*float64(i%2), -float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := r.Add("after", float64(i)*0.01, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Add("short", math.Copysign(0, -1), 0); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := r.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	cw := csv.NewWriter(&want)
	_ = cw.Write([]string{"series", "time", "value"})
	for _, name := range r.Names() {
		for _, p := range r.Series(name).Samples {
			_ = cw.Write([]string{name, strconv.FormatFloat(p.T, 'g', -1, 64), strconv.FormatFloat(p.V, 'g', -1, 64)})
		}
	}
	cw.Flush()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV (%d bytes) differs from encoding/csv (%d bytes)", got.Len(), want.Len())
	}
}

// Property: RMS over the full range matches the direct computation.
func TestQuickSeriesRMS(t *testing.T) {
	f := func(vals []int8) bool {
		var s Series
		sum := 0.0
		for i, v := range vals {
			x := float64(v) / 4
			if err := s.Add(float64(i), x); err != nil {
				return false
			}
			sum += x * x
		}
		if len(vals) == 0 {
			return s.RMS(0, 1) == 0
		}
		want := math.Sqrt(sum / float64(len(vals)))
		return math.Abs(s.RMS(0, float64(len(vals)))-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSeriesPercentile(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		if err := s.Add(float64(i), float64(i)*10); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		p, from, to, want float64
	}{
		{p: 0, from: 0, to: 10, want: 0},
		{p: 100, from: 0, to: 10, want: 90},
		{p: 50, from: 0, to: 10, want: 45},
		{p: 50, from: 4, to: 6, want: 45}, // samples 40,50
		{p: 50, from: 100, to: 200, want: 0},
		{p: -5, from: 0, to: 10, want: 0},
		{p: 101, from: 0, to: 10, want: 0},
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p, tt.from, tt.to); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v,[%v,%v)) = %v, want %v", tt.p, tt.from, tt.to, got, tt.want)
		}
	}
	// Single-sample range.
	if got := s.Percentile(75, 3, 4); got != 30 {
		t.Errorf("single-sample percentile = %v, want 30", got)
	}
}
