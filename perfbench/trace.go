package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one operation
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of a traced pass in memory until the run ends. A
// nil *tracer is tracing off: every method is then a no-op.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span ID, so that children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// Headers that carry the client's span context into the server-side
// middleware.
const (
	hdrParent = "X-Bench-Parent"
	hdrReq    = "X-Bench-Req"
)

// middleware records a span named "service.handler <method>" around every
// traced request the server's routed handler serves.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if err != nil {
			// Untraced traffic: set-up passes and health probes.
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(t.id(), parent, req, "service.handler "+r.Method, start, time.Now())
	})
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children count once.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to [start, end].
func covered(start, end int64, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, start), min(k.End, end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := iv{math.MinInt64, math.MinInt64}
	for _, v := range ivs {
		if v.lo > cur.hi {
			if cur.hi > cur.lo {
				total += cur.hi - cur.lo
			}
			cur = v
			continue
		}
		cur.hi = max(cur.hi, v.hi)
	}
	if cur.hi > cur.lo {
		total += cur.hi - cur.lo
	}
	return total
}

// spanStat summarizes the spans of one name.
type spanStat struct {
	name       string
	count      int
	p50, self  float64 // medians, ms
	selfTotal  float64 // ms
	transports []float64
}

// spanStats groups spans by name, in order of first appearance. A span
// with a service.handler child is an HTTP round trip; its self time is
// the transport share (client, loopback network and net/http outside the
// routed handler).
func spanStats(spans []span) []spanStat {
	self := selfTimes(spans)
	hasHandler := make(map[int64]bool)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "service.handler") {
			hasHandler[s.Parent] = true
		}
	}
	idx := make(map[string]int)
	var out []spanStat
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanStat{name: s.Name})
		}
		st := &out[i]
		st.count++
		d, sf := ms(s.dur()), ms(self[s.ID])
		st.selfTotal += sf
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], sf)
		if hasHandler[s.ID] {
			st.transports = append(st.transports, sf)
		}
	}
	for i := range out {
		out[i].p50 = median(durs[out[i].name])
		out[i].self = median(selfs[out[i].name])
	}
	return out
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// rtSample is a reading of the Go runtime's cumulative GC counters.
type rtSample struct {
	allocBytes, gcCycles, pauseSec float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return rtSample{
		allocBytes: float64(ss[0].Value.Uint64()),
		gcCycles:   float64(ss[1].Value.Uint64()),
		pauseSec:   histSum(ss[2].Value.Float64Histogram()),
	}
}

// histSum estimates the total of a runtime histogram from its bucket
// midpoints (the runtime's pause buckets are a few percent wide).
func histSum(h *metrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.pauseSec + b.pauseSec}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.pauseSec - b.pauseSec}
}
