package agg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"
)

// Sink receives exported rollup batches.  Implementations must be safe
// for calls from the exporter's single flush goroutine; they do not
// need to be idempotent (the exporter never re-emits a delivered
// batch).
type Sink interface {
	// Emit delivers one batch.  An error triggers the exporter's
	// retry/backoff discipline; after the retry budget the batch is
	// dropped and counted.
	Emit(batch []CellRollup) error
	// Close releases the sink.
	Close() error
}

// ExporterConfig tunes the batching exporter.  The zero value selects
// the defaults.
type ExporterConfig struct {
	// BatchSize flushes the queue whenever this many rollups are
	// pending (default 64).
	BatchSize int
	// MaxAge flushes a non-empty queue this long after its oldest entry
	// arrived, so a trickling sweep still exports (default 2s).
	MaxAge time.Duration
	// QueueLimit bounds the pending queue; beyond it the oldest entries
	// are dropped and counted — the queue never grows without bound
	// (default 4096).
	QueueLimit int
	// MaxAttempts bounds delivery attempts per batch, the first one
	// included (default 5).
	MaxAttempts int
	// Backoff is the delay after the first failed attempt; it doubles
	// per retry (default 10ms).  The discipline mirrors the platform's
	// verified cap-write applicator, which the fault suite proved out.
	Backoff time.Duration

	// OnDrop, when set, observes every dropped rollup count (wired to
	// the capsim_telemetry_dropped_total counter).
	OnDrop func(n int)
	// Sleep overrides the retry sleep (tests); nil means time.Sleep.
	Sleep func(time.Duration)
}

func (c ExporterConfig) withDefaults() ExporterConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.MaxAge <= 0 {
		c.MaxAge = 2 * time.Second
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4096
	}
	if c.QueueLimit < c.BatchSize {
		c.QueueLimit = c.BatchSize
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = 10 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Exporter batches cell rollups toward a sink: a bounded queue, flushes
// triggered by batch size or age, retry with doubling backoff, and
// drop-oldest under sustained backpressure — the forwarder/serializer
// split of a production metrics agent, sized down.  Enqueue never
// blocks the sweep pool: delivery runs on one background goroutine.
type Exporter struct {
	cfg  ExporterConfig
	sink Sink

	mu      sync.Mutex
	queue   []CellRollup
	oldest  time.Time
	dropped uint64
	closed  bool
	wake    chan struct{}
	done    chan struct{}
	stopped chan struct{} // closed when loop returns
}

// NewExporter starts an exporter over the sink.
func NewExporter(sink Sink, cfg ExporterConfig) *Exporter {
	e := &Exporter{
		cfg:     cfg.withDefaults(),
		sink:    sink,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	go e.loop()
	return e
}

// Enqueue queues one rollup for export.  When the queue is at its
// limit the oldest pending rollups are dropped (and counted) to make
// room: under sustained backpressure the exporter sheds history, it
// never grows without bound.
func (e *Exporter) Enqueue(c CellRollup) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if len(e.queue) == 0 {
		e.oldest = time.Now()
	}
	e.queue = append(e.queue, c)
	if over := len(e.queue) - e.cfg.QueueLimit; over > 0 {
		e.queue = append(e.queue[:0], e.queue[over:]...)
		e.dropped += uint64(over)
		if e.cfg.OnDrop != nil {
			e.cfg.OnDrop(over)
		}
	}
	ready := len(e.queue) >= e.cfg.BatchSize
	e.mu.Unlock()
	if ready {
		e.signal()
	}
}

func (e *Exporter) signal() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// Dropped reports how many rollups were dropped (queue overflow plus
// batches abandoned after the retry budget).
func (e *Exporter) Dropped() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// Pending reports the queued, not-yet-delivered rollup count.
func (e *Exporter) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue)
}

// loop is the background flusher: it wakes on batch-size pressure, on
// the age timer, and on Close.
func (e *Exporter) loop() {
	defer close(e.stopped)
	timer := time.NewTimer(e.cfg.MaxAge)
	defer timer.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-e.wake:
		case <-timer.C:
		}
		timer.Reset(e.cfg.MaxAge)
		for e.flushReady(false) {
		}
	}
}

// flushReady delivers one batch if the queue is full enough (or force,
// or old enough); it reports whether another full batch is pending.
func (e *Exporter) flushReady(force bool) bool {
	e.mu.Lock()
	n := len(e.queue)
	if n == 0 {
		e.mu.Unlock()
		return false
	}
	aged := time.Since(e.oldest) >= e.cfg.MaxAge
	if !force && !aged && n < e.cfg.BatchSize {
		e.mu.Unlock()
		return false
	}
	if n > e.cfg.BatchSize {
		n = e.cfg.BatchSize
	}
	batch := make([]CellRollup, n)
	copy(batch, e.queue)
	e.queue = append(e.queue[:0], e.queue[n:]...)
	if len(e.queue) > 0 {
		e.oldest = time.Now()
	}
	e.mu.Unlock()

	if err := e.deliver(batch); err != nil {
		e.mu.Lock()
		e.dropped += uint64(len(batch))
		e.mu.Unlock()
		if e.cfg.OnDrop != nil {
			e.cfg.OnDrop(len(batch))
		}
	}

	e.mu.Lock()
	more := len(e.queue) >= e.cfg.BatchSize
	e.mu.Unlock()
	return more
}

// deliver pushes one batch through the sink with the retry discipline.
func (e *Exporter) deliver(batch []CellRollup) error {
	backoff := e.cfg.Backoff
	var err error
	for attempt := 0; attempt < e.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			e.cfg.Sleep(backoff)
			backoff *= 2
		}
		if err = e.sink.Emit(batch); err == nil {
			return nil
		}
	}
	return fmt.Errorf("agg: batch dropped after %d attempts: %w", e.cfg.MaxAttempts, err)
}

// drain synchronously delivers everything still queued through the sink
// (honouring the retry discipline per batch).  Only Close calls it,
// after loop has returned, so exactly one goroutine ever flushes at a
// time: the loop while it runs, then Close.
func (e *Exporter) drain() {
	for {
		e.mu.Lock()
		empty := len(e.queue) == 0
		e.mu.Unlock()
		if empty {
			return
		}
		e.flushReady(true)
	}
}

// Close stops the background goroutine, waits out any batch it is
// still delivering, flushes the rest and closes the sink — so no
// batch can reach the sink after Close returns, or be lost to it.
func (e *Exporter) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	<-e.stopped
	e.drain()
	return e.sink.Close()
}

// ---------------------------------------------------------------- sinks

// JSONLSink streams rollup batches as JSON lines to a file — the
// local-artifact sink capbench wires behind -agg-dir.  Lines land in
// completion order (the stream is a durability/debug artifact; the
// deterministic exports come from Surface.MarshalRollups).
type JSONLSink struct {
	mu sync.Mutex
	f  *os.File
}

// NewJSONLSink creates (truncating) the stream file.
func NewJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("agg: jsonl sink: %w", err)
	}
	return &JSONLSink{f: f}, nil
}

// Emit appends one batch, one JSON object per line, and syncs so the
// stream survives a crash up to the last delivered batch.
func (s *JSONLSink) Emit(batch []CellRollup) error {
	var buf bytes.Buffer
	for _, c := range batch {
		b, err := json.Marshal(c.Doc())
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("agg: jsonl sink closed")
	}
	if _, err := s.f.Write(buf.Bytes()); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close closes the stream file.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// HTTPSink POSTs rollup batches as JSON arrays — the wire sink a
// long-running capserved will expose an ingest endpoint for.
type HTTPSink struct {
	url    string
	client *http.Client
}

// NewHTTPSink builds a sink posting to url; client nil means a default
// client with a 10s timeout.
func NewHTTPSink(url string, client *http.Client) *HTTPSink {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &HTTPSink{url: url, client: client}
}

// Emit posts one batch; any non-2xx status is an error (and so retried
// by the exporter).
func (s *HTTPSink) Emit(batch []CellRollup) error {
	docs := make([]CellRollup, len(batch))
	for i, c := range batch {
		docs[i] = c.Doc()
	}
	body, err := json.Marshal(docs)
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("agg: http sink: %s returned %s", s.url, resp.Status)
	}
	return nil
}

// Close is a no-op for the HTTP sink.
func (s *HTTPSink) Close() error { return nil }
