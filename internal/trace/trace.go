// Package trace records named time series during simulation runs and
// exports them as CSV, which is how every figure of the evaluation is
// regenerated.
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Sample is one (time, value) point.
type Sample struct {
	T, V float64
}

// Series is an append-only time series. Times must be non-decreasing.
type Series struct {
	Name    string
	Samples []Sample
}

// Add appends a sample; time must not move backwards.
func (s *Series) Add(t, v float64) error {
	if n := len(s.Samples); n > 0 && t < s.Samples[n-1].T {
		return fmt.Errorf("trace: series %q time %v before %v", s.Name, t, s.Samples[n-1].T)
	}
	s.Samples = append(s.Samples, Sample{T: t, V: v})
	return nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Values returns the sample values as a fresh slice.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, p := range s.Samples {
		out[i] = p.V
	}
	return out
}

// Slice returns the samples with from <= T < to as a fresh slice.
func (s *Series) Slice(from, to float64) []Sample {
	var out []Sample
	for _, p := range s.Samples {
		if p.T >= from && p.T < to {
			out = append(out, p)
		}
	}
	return out
}

// RMS returns the root-mean-square of values with from <= T < to, or 0 if
// the range is empty.
func (s *Series) RMS(from, to float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Samples {
		if p.T >= from && p.T < to {
			sum += p.V * p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Mean returns the mean of values with from <= T < to, or 0 if empty.
func (s *Series) Mean(from, to float64) float64 {
	sum, n := 0.0, 0
	for _, p := range s.Samples {
		if p.T >= from && p.T < to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxAbs returns the largest |value| with from <= T < to, or 0 if empty.
func (s *Series) MaxAbs(from, to float64) float64 {
	m := 0.0
	for _, p := range s.Samples {
		if p.T >= from && p.T < to && math.Abs(p.V) > m {
			m = math.Abs(p.V)
		}
	}
	return m
}

// At returns the latest value with T <= t (zero-order hold) and whether any
// sample qualifies.
func (s *Series) At(t float64) (float64, bool) {
	idx := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T > t })
	if idx == 0 {
		return 0, false
	}
	return s.Samples[idx-1].V, true
}

// Recorder collects named series.
type Recorder struct {
	series map[string]*Series
	order  []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Add appends a sample to the named series, creating it on first use.
func (r *Recorder) Add(name string, t, v float64) error {
	if name == "" {
		return errors.New("trace: empty series name")
	}
	return r.Open(name).Add(t, v)
}

// Open returns the named series, creating it empty — last in creation
// order — if absent. A caller that appends often keeps the returned series
// and appends to it directly instead of paying Add's name lookup per
// sample.
func (r *Recorder) Open(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return s
}

// Series returns the named series, or nil if absent.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// Names returns the series names in creation order.
func (r *Recorder) Names() []string { return append([]string(nil), r.order...) }

// csvChunk is the flush threshold of the streaming CSV writer: rows are
// appended to one reused buffer that is written out whenever it passes
// this size, so a multi-megabyte export costs a few dozen writes.
const csvChunk = 32 << 10

// WriteCSV writes all series in long format: series,time,value. The bytes
// are exactly what encoding/csv (comma separator, LF line endings) writes
// for the same records; only series names can need quoting, because
// strconv's 'g' floats never contain a comma, quote, newline or leading
// space.
func (r *Recorder) WriteCSV(w io.Writer) error {
	return r.StreamCSV(w, nil)
}

// StreamCSV writes buf followed by the WriteCSV bytes to w, reusing buf's
// storage as the chunk buffer. Report digests pass the buffer holding
// their length-prefixed header fields, so one buffer feeds the whole hash.
func (r *Recorder) StreamCSV(w io.Writer, buf []byte) error {
	// A small export gets a buffer of about its own size (a row is the
	// name plus about 40 bytes of times, values and separators) rather
	// than a whole chunk: digests of small reports are taken at high
	// rates, and a chunk each would multiply their garbage.
	longest, size := 0, len(buf)+64
	for _, s := range r.series {
		longest = max(longest, len(s.Samples))
		size += len(s.Samples) * (len(s.Name) + 40)
	}
	if size = min(size, csvChunk+csvChunk/8); cap(buf) < size {
		buf = append(make([]byte, 0, size), buf...)
	}
	buf = append(buf, "series,time,value\n"...)
	// Series recorded on one clock share their time grid, so sample times
	// are formatted once per grid and copied from here for later series
	// whose sample at the same index has the same bits.
	times := make([]timeText, longest)
	for _, name := range r.order {
		field := csvField(name)
		for i, p := range r.series[name].Samples {
			buf = append(buf, field...)
			buf = append(buf, ',')
			if tt, bits := &times[i], math.Float64bits(p.T); tt.n > 0 && tt.bits == bits {
				buf = append(buf, tt.text[:tt.n]...)
			} else {
				start := len(buf)
				buf = strconv.AppendFloat(buf, p.T, 'g', -1, 64)
				if t := buf[start:]; len(t) <= len(tt.text) {
					tt.bits, tt.n = bits, uint8(copy(tt.text[:], t))
				}
			}
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, p.V, 'g', -1, 64)
			buf = append(buf, '\n')
			if len(buf) >= csvChunk {
				if _, err := w.Write(buf); err != nil {
					return fmt.Errorf("trace: write rows: %w", err)
				}
				buf = buf[:0]
			}
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("trace: write rows: %w", err)
	}
	return nil
}

// timeText is one cached formatted sample time; n == 0 marks an empty
// slot. 24 bytes hold any 'g'-formatted float64, the longest being
// "-1.2345678901234567e-308".
type timeText struct {
	bits uint64
	n    uint8
	text [24]byte
}

// csvField renders one field the way encoding/csv's Writer does: quoted,
// with inner quotes doubled, when it holds a comma, quote, CR or LF,
// starts with a space character, or is exactly `\.`; verbatim otherwise.
func csvField(s string) string {
	if s == "" {
		return s
	}
	r, _ := utf8.DecodeRuneInString(s)
	if s != `\.` && !strings.ContainsAny(s, ",\"\r\n") && !unicode.IsSpace(r) {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Percentile returns the p-th percentile (0..100, linear interpolation) of
// the values with from <= T < to. It returns 0 for an empty range or an
// out-of-range p.
func (s *Series) Percentile(p, from, to float64) float64 {
	if p < 0 || p > 100 {
		return 0
	}
	var vals []float64
	for _, q := range s.Samples {
		if q.T >= from && q.T < to {
			vals = append(vals, q.V)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return vals[0]
	}
	rank := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return vals[lo]
	}
	frac := rank - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}
