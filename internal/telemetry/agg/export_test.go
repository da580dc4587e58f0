package agg

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// memSink collects emitted batches; fail(n) makes the next n Emit calls
// error.
type memSink struct {
	mu      sync.Mutex
	batches [][]CellRollup
	fails   int
	emits   int
	closed  bool
}

func (s *memSink) Emit(batch []CellRollup) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emits++
	if s.fails > 0 {
		s.fails--
		return errors.New("sink down")
	}
	cp := make([]CellRollup, len(batch))
	copy(cp, batch)
	s.batches = append(s.batches, cp)
	return nil
}

func (s *memSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

func (s *memSink) delivered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, b := range s.batches {
		n += len(b)
	}
	return n
}

func cellN(i int) CellRollup {
	return CellRollup{Key: fmt.Sprintf("cell-%04d", i), Platform: "p", Workload: "w", Plan: "HB"}
}

// TestExporterSizeFlush: reaching BatchSize triggers a flush without
// waiting for the age timer.
func TestExporterSizeFlush(t *testing.T) {
	sink := &memSink{}
	e := NewExporter(sink, ExporterConfig{BatchSize: 4, MaxAge: time.Hour})
	for i := 0; i < 8; i++ {
		e.Enqueue(cellN(i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.delivered() < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sink.delivered(); got != 8 {
		t.Fatalf("delivered %d of 8 before the age timer", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Fatal("Close must close the sink")
	}
}

// TestExporterCloseFlushesPartial: a partial batch drains on Close.
func TestExporterCloseFlushesPartial(t *testing.T) {
	sink := &memSink{}
	e := NewExporter(sink, ExporterConfig{BatchSize: 100, MaxAge: time.Hour})
	for i := 0; i < 7; i++ {
		e.Enqueue(cellN(i))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := sink.delivered(); got != 7 {
		t.Fatalf("delivered %d of 7 after Close", got)
	}
	// Enqueue after Close is dropped silently (no panic, no growth).
	e.Enqueue(cellN(99))
	if e.Pending() != 0 {
		t.Fatal("closed exporter must not queue")
	}
}

// TestExporterRetryBackoff: transient sink failures retry with doubling
// backoff and eventually deliver; the batch is not dropped.
func TestExporterRetryBackoff(t *testing.T) {
	sink := &memSink{fails: 3}
	var slept []time.Duration
	// BatchSize above the enqueue count keeps the background flusher out
	// of the way: delivery happens synchronously inside Close's drain,
	// after the flusher has returned, so the recorded backoffs are
	// race-free.
	e := NewExporter(sink, ExporterConfig{
		BatchSize: 10, MaxAge: time.Hour, Backoff: 10 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	e.Enqueue(cellN(0))
	e.Close()
	if got := sink.delivered(); got != 1 {
		t.Fatalf("delivered %d, want 1 after retries", got)
	}
	if e.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", e.Dropped())
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %v, want %v", i, slept[i], want[i])
		}
	}
}

// TestExporterRetryExhaustionDrops: a sink that never recovers costs
// exactly the batch, counted in Dropped and via OnDrop.
func TestExporterRetryExhaustionDrops(t *testing.T) {
	sink := &memSink{fails: 1 << 20}
	var onDrop int
	// BatchSize above the enqueue count: Close's drain delivers
	// synchronously.
	e := NewExporter(sink, ExporterConfig{
		BatchSize: 10, MaxAge: time.Hour, MaxAttempts: 3,
		Sleep:  func(time.Duration) {},
		OnDrop: func(n int) { onDrop += n },
	})
	e.Enqueue(cellN(0))
	e.Enqueue(cellN(1))
	e.Close()
	if e.Dropped() != 2 || onDrop != 2 {
		t.Fatalf("dropped=%d onDrop=%d, want 2/2", e.Dropped(), onDrop)
	}
}

// TestExporterDropOldest: sustained backpressure sheds the oldest
// entries, never grows the queue past its limit, and counts the loss.
func TestExporterDropOldest(t *testing.T) {
	// A sink that blocks forever on a gate keeps the queue from draining.
	gate := make(chan struct{})
	sink := &gateSink{gate: gate}
	var onDrop int
	var mu sync.Mutex
	e := NewExporter(sink, ExporterConfig{
		BatchSize: 1, QueueLimit: 8, MaxAge: time.Hour,
		OnDrop: func(n int) { mu.Lock(); onDrop += n; mu.Unlock() },
	})
	for i := 0; i < 50; i++ {
		e.Enqueue(cellN(i))
	}
	if p := e.Pending(); p > 8 {
		t.Fatalf("queue grew to %d, limit is 8", p)
	}
	if d := e.Dropped(); d < 50-8-1 { // one cell may be in flight at the sink
		t.Fatalf("dropped %d, want >= %d", d, 50-8-1)
	}
	mu.Lock()
	if onDrop == 0 {
		t.Fatal("OnDrop never observed the shed entries")
	}
	mu.Unlock()
	close(gate)
	e.Close()
	// The retained tail is the newest entries: the last delivered cell
	// must be the final enqueue.
	sink.mu.Lock()
	last := sink.last
	sink.mu.Unlock()
	if last != "cell-0049" {
		t.Fatalf("last delivered = %q, want the newest cell", last)
	}
}

type gateSink struct {
	gate chan struct{}
	mu   sync.Mutex
	last string
}

func (s *gateSink) Emit(batch []CellRollup) error {
	<-s.gate
	s.mu.Lock()
	s.last = batch[len(batch)-1].Key
	s.mu.Unlock()
	return nil
}
func (s *gateSink) Close() error { return nil }

// TestJSONLSink writes batches as parseable JSON lines.
func TestJSONLSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.jsonl")
	sink, err := NewJSONLSink(path)
	if err != nil {
		t.Fatal(err)
	}
	c := cellN(0)
	c.Sketches = map[string]*Sketch{SketchTaskDuration: NewSketch(0)}
	c.Sketches[SketchTaskDuration].Observe(0.5)
	if err := sink.Emit([]CellRollup{c, cellN(1)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d", len(lines))
	}
	var back CellRollup
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back.Key != "cell-0000" || back.SketchDocs[SketchTaskDuration].Count != 1 {
		t.Fatalf("line 0 lost data: %+v", back)
	}
}

// TestHTTPSink posts JSON batches and treats non-2xx as retryable
// errors.
func TestHTTPSink(t *testing.T) {
	var got [][]CellRollup
	var status int = http.StatusOK
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var batch []CellRollup
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			t.Errorf("bad body: %v", err)
		}
		got = append(got, batch)
		w.WriteHeader(status)
	}))
	defer srv.Close()

	sink := NewHTTPSink(srv.URL, srv.Client())
	if err := sink.Emit([]CellRollup{cellN(0), cellN(1)}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 2 || got[0][1].Key != "cell-0001" {
		t.Fatalf("server saw %+v", got)
	}
	status = http.StatusInternalServerError
	if err := sink.Emit([]CellRollup{cellN(2)}); err == nil {
		t.Fatal("non-2xx must be an error")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExporterThroughHTTPSink exercises the full exporter → HTTP path.
func TestExporterThroughHTTPSink(t *testing.T) {
	var mu sync.Mutex
	received := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var batch []CellRollup
		json.NewDecoder(r.Body).Decode(&batch)
		mu.Lock()
		received += len(batch)
		mu.Unlock()
	}))
	defer srv.Close()

	e := NewExporter(NewHTTPSink(srv.URL, srv.Client()), ExporterConfig{BatchSize: 5, MaxAge: time.Hour})
	for i := 0; i < 23; i++ {
		e.Enqueue(cellN(i))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if received != 23 {
		t.Fatalf("received %d of 23", received)
	}
}
