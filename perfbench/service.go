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
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sweepd"
	"repro/internal/telemetry/agg"
)

// jobTimeout bounds one job; a job that has not finished by then is a
// hung service, reported as an error rather than waited on.
const jobTimeout = 150 * time.Second

// service is a long-lived sweepd coordinator with CheckpointDir and
// AggDir set and the default lease TTL, serving loopback HTTP, plus a
// fleet of in-process sweepd.Workers holding one lease each — the
// shape of `capserved` with its fleet, submitted to as `capbench grid
// -submit` does.
type service struct {
	rc     runConfig
	dir    string
	coord  *sweepd.Coordinator
	srv    *http.Server
	url    string
	cancel context.CancelFunc
	wg     sync.WaitGroup
	client *http.Client
	taps   []*wireTap
	hand   *handlerTap
	// tracing switches the taps' timing on for traced jobs.
	tracing atomic.Bool
	rpc     rpcCounter

	base       time.Time
	firstLease atomic.Int64 // ns since base; 0 until the job's first grant
	firstCell  atomic.Int64 // ns since base; 0 until the job's first result
	granted    atomic.Int64 // leases granted during traced jobs
	// tracedCells and tracedWall size the traced jobs.
	tracedCells int
	tracedWall  time.Duration
	failEvents  atomic.Int64
	joined      chan struct{}
	nJoined     atomic.Int32
	workerErr   chan error
}

// rpcCounter counts protocol calls and the ones that failed.
type rpcCounter struct {
	attempted, failed atomic.Int64
}

func newService(rc runConfig, dir string) (harness, error) {
	s := &service{rc: rc, dir: dir, base: time.Now(), joined: make(chan struct{}),
		workerErr: make(chan error, rc.workers)}
	bus := obs.NewBus()
	bus.SetOnPublish(s.observe)
	coord, err := sweepd.New(sweepd.Config{
		CheckpointDir: filepath.Join(dir, "ckpt"),
		AggDir:        filepath.Join(dir, "agg"),
		Bus:           bus,
	})
	if err != nil {
		return nil, err
	}
	s.coord = coord
	if _, err := coord.Recover(); err != nil {
		coord.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hand = &handlerTap{next: coord.Handler(), on: &s.tracing, samples: map[string][]time.Duration{}}
	s.srv = &http.Server{Handler: s.hand}
	go s.srv.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	coord.Start(ctx)

	s.client = &http.Client{Timeout: 30 * time.Second, Transport: &wireTap{base: newTransport(), rpc: &s.rpc, on: new(atomic.Bool)}}
	for i := 0; i < rc.workers; i++ {
		tap := &wireTap{base: newTransport(), rpc: &s.rpc, on: &s.tracing, rtt: map[string][]time.Duration{}}
		s.taps = append(s.taps, tap)
		w, err := sweepd.NewWorker(sweepd.WorkerConfig{
			ID:          fmt.Sprintf("perfbench-w%d", i+1),
			Coordinator: s.url,
			MaxLeases:   1,
			Client:      &http.Client{Timeout: 30 * time.Second, Transport: tap},
			CrashFn:     func(string) { s.failEvents.Add(1) },
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				s.workerErr <- err
			}
		}()
	}
	select {
	case <-s.joined:
	case err := <-s.workerErr:
		s.close()
		return nil, fmt.Errorf("worker: %w", err)
	case <-time.After(jobTimeout):
		s.close()
		return nil, errors.New("workers did not join")
	}
	return s, nil
}

func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// observe stamps the coordinator's events as they are published.
func (s *service) observe(t obs.EventType) {
	now := int64(time.Since(s.base))
	switch t {
	case obs.WorkerJoined:
		if int(s.nJoined.Add(1)) == s.rc.workers {
			close(s.joined)
		}
	case obs.LeaseGranted:
		s.firstLease.CompareAndSwap(0, now)
		if s.tracing.Load() {
			s.granted.Add(1)
		}
	case obs.CellFinished:
		s.firstCell.CompareAndSwap(0, now)
	case obs.CellPanicked, obs.CellHung, obs.CellQuarantined, obs.LeaseExpired:
		s.failEvents.Add(1)
	}
}

func (s *service) runJob(k int, seed int64, traced bool) (*jobOutcome, error) {
	spec := sweepd.JobSpec{Experiment: "grid", Platform: s.rc.w.platform, Scale: s.rc.w.scale, Seed: seed}
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	s.tracing.Store(traced)
	defer s.tracing.Store(false)
	s.firstLease.Store(0)
	s.firstCell.Store(0)
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	submitAt := int64(start.Sub(s.base))
	resp, err := s.client.Post(s.url+sweepd.PathSubmit, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	var sr sweepd.SubmitReply
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		return nil, fmt.Errorf("submit: HTTP %d: %v", resp.StatusCode, err)
	}
	if sr.Duplicate {
		return nil, fmt.Errorf("submit: job %s deduplicated; job seeds must be fresh", sr.JobID)
	}
	// Replaying the submission in-process returns the job the HTTP
	// submission created, whose Done channel closes once its artifacts
	// are written — no status polling on the measured path.
	job, err := s.coord.Submit(spec)
	if err != nil {
		return nil, err
	}
	select {
	case <-job.Done():
	case err := <-s.workerErr:
		return nil, fmt.Errorf("worker: %w", err)
	case <-time.After(jobTimeout):
		return nil, fmt.Errorf("job %s not finished after %v", sr.JobID, jobTimeout)
	}
	latency := time.Since(start)
	if traced {
		s.tracedCells += len(cells)
		s.tracedWall += latency
	}
	rep := job.Report()
	if rep == nil {
		return nil, fmt.Errorf("job %s finished without a report", sr.JobID)
	}
	out := &jobOutcome{
		seed: seed, cells: cells, traced: traced,
		latency:     latency,
		firstResult: time.Duration(s.firstCell.Load() - submitAt),
		idleWait:    time.Duration(s.firstLease.Load() - submitAt),
		failed:      rep.Cells - rep.Done,
	}
	dir := job.ArtifactDir()
	out.digestsFile = filepath.Join(dir, sweepd.DigestsFile)
	out.streamFile = filepath.Join(dir, agg.StreamFile)
	return out, nil
}

func (s *service) rpcs() (int64, int64) { return s.rpc.attempted.Load(), s.rpc.failed.Load() }
func (s *service) failureEvents() int64 { return s.failEvents.Load() }
func (s *service) journalRoot() string  { return filepath.Join(s.dir, "ckpt") }

// close stops the fleet, then the server, then releases the
// coordinator's journals; it waits for every worker goroutine.
func (s *service) close() error {
	s.cancel()
	s.wg.Wait()
	err := s.srv.Close()
	if cerr := s.coord.Close(); err == nil {
		err = cerr
	}
	for _, t := range s.taps {
		t.base.(*http.Transport).CloseIdleConnections()
	}
	s.client.Transport.(*wireTap).base.(*http.Transport).CloseIdleConnections()
	return err
}

func (s *service) layers(m map[string]float64) {
	rtt := map[string][]time.Duration{}
	var wire int64
	var busy time.Duration
	for _, t := range s.taps {
		t.mu.Lock()
		for p, v := range t.rtt {
			rtt[p] = append(rtt[p], v...)
		}
		wire += t.bytes
		busy += t.busy
		t.mu.Unlock()
	}
	leaseCalls := int64(len(rtt[sweepd.PathLease]))
	for _, p := range []struct{ name, path string }{
		{"lease", sweepd.PathLease}, {"result", sweepd.PathResult}, {"heartbeat", sweepd.PathHeartbeat},
	} {
		m["sweepd."+p.name+"_rtt_ms_p50"] = pct(rtt[p.path], 0.5)
		m["sweepd."+p.name+"_rtt_ms_p99"] = pct(rtt[p.path], 0.99)
	}
	s.hand.mu.Lock()
	for _, p := range []struct{ name, path string }{{"lease", sweepd.PathLease}, {"result", sweepd.PathResult}} {
		m["sweepd."+p.name+"_handler_ms_p50"] = pct(s.hand.samples[p.path], 0.5)
		m["sweepd."+p.name+"_handler_ms_p99"] = pct(s.hand.samples[p.path], 0.99)
	}
	s.hand.mu.Unlock()
	m["sweepd.lease_calls_per_cell"] = ratio(float64(leaseCalls), float64(s.tracedCells))
	m["sweepd.empty_lease_frac"] = ratio(float64(leaseCalls-s.granted.Load()), float64(leaseCalls))
	m["sweepd.wire_bytes_per_cell"] = ratio(float64(wire), float64(s.tracedCells))
	m["sweepd.worker_busy_frac"] = ratio(float64(busy), float64(s.rc.workers)*float64(s.tracedWall))
}

// pct is the q-quantile of ds in milliseconds, 0 without samples.
func pct(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	return quantile(millis(ds), q)
}

// wireTap is a worker's http.RoundTripper.  It always counts calls and
// failures (429, 5xx, transport errors); while on, it also records each
// call's round trip (until the body is closed), the body bytes both
// ways, and the worker's busy time — from the reply to the lease call
// that preceded a result report to that report.
type wireTap struct {
	base http.RoundTripper
	rpc  *rpcCounter
	on   *atomic.Bool

	mu        sync.Mutex
	rtt       map[string][]time.Duration
	bytes     int64
	lastLease time.Time
	busy      time.Duration
}

func (t *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	t.rpc.attempted.Add(1)
	on := t.on.Load()
	start := time.Now()
	path := req.URL.Path
	if on && path == sweepd.PathResult {
		t.mu.Lock()
		if !t.lastLease.IsZero() {
			t.busy += start.Sub(t.lastLease)
			t.lastLease = time.Time{}
		}
		t.mu.Unlock()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rpc.failed.Add(1)
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		t.rpc.failed.Add(1)
	}
	if !on {
		return resp, nil
	}
	sent := req.ContentLength
	resp.Body = &tapBody{ReadCloser: resp.Body, done: func(read int64) {
		end := time.Now()
		t.mu.Lock()
		t.rtt[path] = append(t.rtt[path], end.Sub(start))
		t.bytes += sent + read
		if path == sweepd.PathLease {
			t.lastLease = end
		}
		t.mu.Unlock()
	}}
	return resp, nil
}

// tapBody counts the bytes read from a response body and reports them
// once, when the body is closed.
type tapBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(read int64)
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *tapBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// handlerTap times the coordinator's handler per path while on.
type handlerTap struct {
	next http.Handler
	on   *atomic.Bool

	mu      sync.Mutex
	samples map[string][]time.Duration
}

func (h *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(start)
	h.mu.Lock()
	h.samples[r.URL.Path] = append(h.samples[r.URL.Path], d)
	h.mu.Unlock()
}
