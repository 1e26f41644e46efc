package run

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"

	"hcperf/internal/experiment"
	"hcperf/internal/lifecycle"
	"hcperf/internal/search"
	"hcperf/internal/trace"
)

// A disk entry has three parts:
//
//  1. a fixed-width text header line: codecMagic, the version and a
//     CRC-32C (Castagnoli) of every byte after the header line;
//  2. the envelope as one line of JSON, with each series reduced to its
//     name and sample count;
//  3. every series' samples in recording order, each sample a
//     little-endian float64 pair (t, v).
//
// Binary floats have no syntax a corruption could break, so the checksum
// is what turns a flipped byte into a decode failure (and a quarantine)
// rather than a silently wrong sample. Decoding refuses other versions, so
// a format change never misreads old entries: they quarantine once and
// recompute.
const (
	codecMagic   = "hcperf-result"
	codecVersion = 2
	// sampleBytes is the size of one encoded (t, v) pair.
	sampleBytes = 16
)

// headerLen is the length of the header line, newline included:
// "hcperf-result v2 crc32c=xxxxxxxx\n".
var headerLen = len(appendHeader(nil, 0))

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends the header line sealing a body with checksum sum.
func appendHeader(b []byte, sum uint32) []byte {
	b = append(b, codecMagic+" v"...)
	b = strconv.AppendInt(b, codecVersion, 10)
	b = append(b, " crc32c="...)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>uint(shift)&0xf])
	}
	return append(b, '\n')
}

// envelope is the JSON line of a disk entry. It carries the request
// digest it was stored under, so a mislabeled or cross-wired entry fails
// the integrity check instead of serving the wrong run.
type envelope struct {
	Digest   string            `json:"digest"`
	Report   *reportJSON       `json:"report"`
	Events   []lifecycle.Event `json:"events,omitempty"`
	Optimize *search.Report    `json:"optimize,omitempty"`
}

// reportJSON mirrors experiment.Report field-for-field, the recorder
// reduced to its ordered series list. HasSeries distinguishes a nil
// recorder from an empty one, because Report.Digest hashes the CSV header
// of an empty recorder but nothing for a nil one.
type reportJSON struct {
	ID        string       `json:"id"`
	Title     string       `json:"title"`
	Header    []string     `json:"header,omitempty"`
	Rows      [][]string   `json:"rows,omitempty"`
	PaperRows [][]string   `json:"paper_rows,omitempty"`
	Notes     []string     `json:"notes,omitempty"`
	Volatile  bool         `json:"volatile,omitempty"`
	HasSeries bool         `json:"has_series,omitempty"`
	Series    []seriesJSON `json:"series,omitempty"`
}

// seriesJSON names one recorded series, in recording order, and counts
// its samples in the entry's sample blocks. The samples are stored as
// their float64 bits, so a decode replays bit-identical samples (NaN,
// ±Inf and −0 included) and the rebuilt recorder's CSV — and therefore
// the report digest — matches the original byte for byte.
type seriesJSON struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

// EncodeResult serializes a completed run for the disk store, keyed by the
// request digest it will be stored under.
func EncodeResult(digest string, res *Result) ([]byte, error) {
	if res == nil || res.Report == nil {
		return nil, fmt.Errorf("run: encode %s: result has no report", digest)
	}
	r := res.Report
	rj := &reportJSON{
		ID:        r.ID,
		Title:     r.Title,
		Header:    r.Header,
		Rows:      r.Rows,
		PaperRows: r.PaperRows,
		Notes:     r.Notes,
		Volatile:  r.Volatile,
	}
	var series []*trace.Series
	samples := 0
	if r.Series != nil {
		rj.HasSeries = true
		for _, name := range r.Series.Names() {
			s := r.Series.Series(name)
			series = append(series, s)
			rj.Series = append(rj.Series, seriesJSON{Name: name, N: s.Len()})
			samples += s.Len()
		}
	}
	line, err := json.Marshal(envelope{Digest: digest, Report: rj, Events: res.Events, Optimize: res.Optimize})
	if err != nil {
		return nil, fmt.Errorf("run: encode %s: %w", digest, err)
	}
	b := make([]byte, headerLen, headerLen+len(line)+1+samples*sampleBytes)
	b = append(b, line...)
	b = append(b, '\n')
	for _, s := range series {
		for _, p := range s.Samples {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.T))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.V))
		}
	}
	appendHeader(b[:0], crc32.Checksum(b[headerLen:], castagnoli))
	return b, nil
}

// DecodeResult parses a disk entry back into a Result, verifying the
// version, the checksum, that the entry was stored under the digest it is
// being read for, and that its sample blocks account for exactly the bytes
// present. Any failure means the entry is corrupt (or cross-wired) and
// must be treated as a miss — the pipeline quarantines it.
func DecodeResult(digest string, data []byte) (*Result, error) {
	body, err := checkHeader(data)
	if err != nil {
		return nil, fmt.Errorf("run: decode %s: %w", digest, err)
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("run: decode %s: envelope line not terminated", digest)
	}
	var env envelope
	if err := json.Unmarshal(body[:nl], &env); err != nil {
		return nil, fmt.Errorf("run: decode %s: %w", digest, err)
	}
	if env.Digest != digest {
		return nil, fmt.Errorf("run: decode %s: entry stored under digest %s", digest, env.Digest)
	}
	if env.Report == nil {
		return nil, fmt.Errorf("run: decode %s: entry has no report", digest)
	}
	rj := env.Report
	rep := &experiment.Report{
		ID:        rj.ID,
		Title:     rj.Title,
		Header:    rj.Header,
		Rows:      rj.Rows,
		PaperRows: rj.PaperRows,
		Notes:     rj.Notes,
		Volatile:  rj.Volatile,
	}
	blocks := body[nl+1:]
	if rj.HasSeries {
		if rep.Series, blocks, err = decodeSeries(rj.Series, blocks); err != nil {
			return nil, fmt.Errorf("run: decode %s: %w", digest, err)
		}
	} else if len(rj.Series) > 0 {
		return nil, fmt.Errorf("run: decode %s: series listed without has_series", digest)
	}
	if len(blocks) > 0 {
		return nil, fmt.Errorf("run: decode %s: %d trailing bytes after the sample blocks", digest, len(blocks))
	}
	return &Result{Report: rep, Events: env.Events, Optimize: env.Optimize}, nil
}

// checkHeader verifies the header line of an entry — magic, version and
// the checksum of everything after it — and returns that remainder.
func checkHeader(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.HasPrefix(data, []byte(codecMagic+" v")) {
		return nil, fmt.Errorf("no %s header, want version %d", codecMagic, codecVersion)
	}
	ver, sum, ok := bytes.Cut(data[len(codecMagic)+2:nl], []byte(" crc32c="))
	v, err := strconv.Atoi(string(ver))
	if !ok || err != nil {
		return nil, fmt.Errorf("malformed header line, want version %d", codecVersion)
	}
	if v != codecVersion {
		return nil, fmt.Errorf("entry version %d, want %d", v, codecVersion)
	}
	want, err := strconv.ParseUint(string(sum), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed header checksum %q", sum)
	}
	body := data[nl+1:]
	if got := crc32.Checksum(body, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("checksum %08x, header says %08x", got, want)
	}
	return body, nil
}

// decodeSeries rebuilds a recorder from the series list and the sample
// blocks, reading each series straight into one exact-size sample slice,
// and returns the blocks left over. It enforces what Recorder.Add would
// have: non-empty names and non-decreasing times; and what the layout
// needs: counts that fit the bytes present and no name twice.
func decodeSeries(list []seriesJSON, blocks []byte) (*trace.Recorder, []byte, error) {
	rec := trace.NewRecorder()
	for _, sj := range list {
		if sj.Name == "" {
			return nil, nil, errors.New("series with an empty name")
		}
		if rec.Series(sj.Name) != nil {
			return nil, nil, fmt.Errorf("series %q listed twice", sj.Name)
		}
		if sj.N < 0 || sj.N > len(blocks)/sampleBytes {
			return nil, nil, fmt.Errorf("series %q claims %d samples, %d bytes left", sj.Name, sj.N, len(blocks))
		}
		s := rec.Open(sj.Name)
		s.Samples = make([]trace.Sample, sj.N)
		for i := range s.Samples {
			b := blocks[i*sampleBytes : (i+1)*sampleBytes]
			p := &s.Samples[i]
			p.T = math.Float64frombits(binary.LittleEndian.Uint64(b))
			p.V = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			if i > 0 && p.T < s.Samples[i-1].T {
				return nil, nil, fmt.Errorf("series %q time %v before %v", sj.Name, p.T, s.Samples[i-1].T)
			}
		}
		blocks = blocks[sj.N*sampleBytes:]
	}
	return rec, blocks, nil
}
