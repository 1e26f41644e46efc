package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hcperf/internal/run"
	"hcperf/internal/service"
	"hcperf/internal/store"
)

const serveWorkers = 2

// storeCap bounds each server's disk tier. serve-cold writes about 1.7 MB
// per request, 765 MB per 30 s window: uncapped, that reaches the
// kernel's background writeback threshold on an 8 GB machine, and the
// writeback stalls the workers' disk writes for seconds at a time.
// Capped, the tier runs in the full, evicting state a long-running server
// lives in, and evicted files are deleted before they reach the disk.
const storeCap = 256 << 20

// server is an in-process hcperf-serve: service.New over a disk store,
// behind a loopback listener.
type server struct {
	svc   *service.Server
	http  *http.Server
	base  string
	done  chan error
	execs *execLog // nil when tracing is off
}

// startServer opens the store in dir, capped at storeCap, builds the
// service and returns once /healthz answers. With a tracer, the routed
// handler is wrapped in the span middleware and Config.Run in a timing
// wrapper.
func startServer(dir string, tr *tracer) (*server, error) {
	disk, err := store.OpenDisk(dir, storeCap, nil)
	if err != nil {
		return nil, err
	}
	cfg := service.Config{Workers: serveWorkers, Disk: disk}
	s := &server{done: make(chan error, 1)}
	if tr != nil {
		s.execs = &execLog{runs: make(map[string][2]time.Time)}
		cfg.Run = s.execs.wrap(service.Execute)
	}
	s.svc = service.New(cfg)
	h := s.svc.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.svc.Manager().Shutdown(context.Background())
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: h}
	go func() { s.done <- s.http.Serve(ln) }()

	resp, err := http.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

// close stops the listener, waits for Serve to return, then drains the
// job manager.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.svc.Manager().Shutdown(ctx))
}

// execLog records when each execution ran, keyed by request digest, so the
// client can attach run.execute spans to the operation that caused them.
type execLog struct {
	mu   sync.Mutex
	runs map[string][2]time.Time
}

func (l *execLog) wrap(next service.RunFunc) service.RunFunc {
	return func(ctx context.Context, req service.RunRequest) (*service.RunResult, error) {
		start := time.Now()
		res, err := next(ctx, req)
		end := time.Now()
		l.mu.Lock()
		l.runs[req.Digest()] = [2]time.Time{start, end}
		l.mu.Unlock()
		return res, err
	}
}

func (l *execLog) lookup(digest string) ([2]time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.runs[digest]
	return r, ok
}

// status is the part of a run status body the checks read.
type status struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Digest string `json:"report_digest"`
	Error  string `json:"error"`
}

// answer is one HTTP exchange, timed until its body was read.
type answer struct {
	code  int
	cache string
	body  []byte
	end   time.Time
}

func (a answer) status() (status, error) {
	var st status
	if err := json.Unmarshal(a.body, &st); err != nil {
		return st, fmt.Errorf("decoding status body: %w", err)
	}
	return st, nil
}

// client is one HTTP client of the server.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

// newClient returns a client with its own keep-alive pool of up to conns
// connections.
func newClient(s *server, tr *tracer, conns int) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}},
		base: s.base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request, reads the whole body and records the exchange as
// a span named name under parent.
func (c *client) do(ctx context.Context, method, path string, body []byte, name string, parent, req int64) (answer, error) {
	hr, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	id := c.tr.id()
	if c.tr != nil {
		hr.Header.Set(hdrParent, strconv.FormatInt(id, 10))
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return answer{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a := answer{code: resp.StatusCode, cache: resp.Header.Get("X-HCPerf-Cache"), body: b, end: time.Now()}
	c.tr.add(id, parent, req, name, start, a.end)
	return a, err
}

// coldOp is one submission that must execute: POST (202, miss), wait on
// the job's Done channel, GET the result.
type coldOp struct {
	sent, accepted, done, end time.Time
	digest                    string
}

// submitAwait runs one cold operation. Spans: service.submit (POST round
// trip), service.queue_wait (202 until the execution started),
// run.execute, service.result (Done until the GET body was read).
func submitAwait(ctx context.Context, c *client, s *server, body []byte, parent, req int64) (coldOp, error) {
	op := coldOp{sent: time.Now()}
	a, err := c.do(ctx, http.MethodPost, "/v1/runs", body, "service.submit", parent, req)
	if err != nil {
		return op, err
	}
	op.accepted = a.end
	if err := checkSubmit(a.code, a.cache, false); err != nil {
		return op, err
	}
	st, err := a.status()
	if err != nil {
		return op, err
	}
	job, ok := s.svc.Manager().Job(st.ID)
	if !ok {
		return op, fmt.Errorf("job %.12s vanished after its 202", st.ID)
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		return op, ctx.Err()
	}
	op.done = time.Now()
	if s.execs != nil {
		if r, ok := s.execs.lookup(st.ID); ok {
			c.tr.add(c.tr.id(), parent, req, "service.queue_wait", op.accepted, maxTime(op.accepted, r[0]))
			c.tr.add(c.tr.id(), parent, req, "run.execute", r[0], r[1])
		}
	}
	a, err = c.do(ctx, http.MethodGet, "/v1/runs/"+st.ID, nil, "service.result", parent, req)
	op.end = a.end
	if err != nil {
		return op, err
	}
	if a.code != http.StatusOK {
		return op, fmt.Errorf("GET result answered %d", a.code)
	}
	if st, err = a.status(); err != nil {
		return op, err
	}
	if st.State != "done" || st.Digest == "" {
		return op, fmt.Errorf("run %.12s ended %q without a report (%s)", st.ID, st.State, st.Error)
	}
	op.digest = st.Digest
	return op, nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// recompute executes the request in body outside the server and returns
// it with its result, for the digest checks and the per-layer probes.
func recompute(ctx context.Context, body []byte) (probeItem, string, error) {
	var req run.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return probeItem{}, "", err
	}
	norm, err := req.Normalize()
	if err != nil {
		return probeItem{}, "", err
	}
	res, err := run.Execute(ctx, norm)
	if err != nil {
		return probeItem{}, "", err
	}
	digest, err := res.Report.Digest()
	return probeItem{req: req, res: res, spec: specOf(req), vehicles: 1}, digest, err
}

// storeCounters is a reading of the service's store and policy counters.
type storeCounters struct {
	memEvict, diskEvict, shed, opens uint64
}

func snapshotStore(m *service.Manager) storeCounters {
	st := m.Metrics().Store
	c := storeCounters{
		memEvict:  st.MemoryEvictions.Load(),
		diskEvict: st.DiskEvictions.Load(),
		shed:      m.Metrics().Shed.Load(),
	}
	if b := m.Breaker(); b != nil {
		c.opens = b.Opens()
	}
	return c
}

// serviceLayers returns the service-side counters' growth since before.
func serviceLayers(m *service.Manager, before storeCounters) map[string]float64 {
	now := snapshotStore(m)
	return map[string]float64{
		"store.memory_evictions": float64(now.memEvict - before.memEvict),
		"store.disk_evictions":   float64(now.diskEvict - before.diskEvict),
		"service.shed":           float64(now.shed - before.shed),
		"policy.breaker_opens":   float64(now.opens - before.opens),
	}
}
