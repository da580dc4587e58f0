// The worker side: join the coordinator, expand the job independently,
// execute leased cells through the guarded executor (watchdog, panic
// containment), heartbeat per lease, and report results as
// checkpoint-codec bytes.  Workers keep nothing durable: the
// coordinator journals every result it accepts, and a result lost on
// the wire re-runs elsewhere byte-identically.
package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrPoisoned is returned by Worker.Run when a poisoned cell's crash
// hook declined to kill the process (tests override the hook; the real
// binary never sees this error because the default hook is os.Exit).
var ErrPoisoned = errors.New("sweepd: worker crashed on poisoned cell")

// errRejoin is the internal signal that the worker's job is gone.
var errRejoin = errors.New("sweepd: rejoin")

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// ID names the worker: it is the lease holder identity, so it must
	// be unique per concurrently-live worker and survive a respawn only
	// if the old process is truly dead.
	ID string
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// MaxLeases bounds cells held at once; defaults to 1.
	MaxLeases int
	// CellTimeout arms the executor's per-cell watchdog.
	CellTimeout time.Duration
	// Client overrides the HTTP client.
	Client *http.Client
	// CrashFn is called when the worker leases a poisoned cell; the
	// default is os.Exit(3) — the chaos harness's simulated hard crash.
	// Tests substitute a hook that records the kill and stops the worker
	// in-process (Run then returns ErrPoisoned).
	CrashFn func(cellKey string)
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MaxLeases <= 0 {
		c.MaxLeases = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.CrashFn == nil {
		c.CrashFn = func(string) { os.Exit(3) }
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Worker executes leased cells for one coordinator.
type Worker struct {
	cfg WorkerConfig

	// rng drives backoff jitter.  Seeded from the worker ID, so a
	// fleet's poll schedule is deterministic per worker yet decorrelated
	// across workers — after a coordinator restart the whole fleet does
	// not re-join and re-poll in lockstep (no thundering herd).  The
	// mutex matters: the heartbeat goroutine posts concurrently with the
	// main loop.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewWorker builds a worker; Run drives it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, errors.New("sweepd: worker needs an ID")
	}
	if cfg.Coordinator == "" {
		return nil, errors.New("sweepd: worker needs a coordinator URL")
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.ID))
	return &Worker{
		cfg: cfg.withDefaults(),
		rng: rand.New(rand.NewSource(int64(h.Sum64()))),
	}, nil
}

// DeriveNetSeed derives a worker's wire-fault-injector seed from the
// fleet's root seed and the worker's ID, so every worker in a
// supervised fleet draws a distinct but reproducible fault schedule
// from one -net-seed flag.  capserved (serial mode) and capworker use
// the same derivation.
func DeriveNetSeed(root int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return root ^ int64(h.Sum64())
}

// jitter spreads a delay over [0.5d, 1.5d) with the worker's seeded
// rng.  Every sleep the worker takes between protocol calls goes
// through here.
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	w.rngMu.Lock()
	f := 0.5 + w.rng.Float64()
	w.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// post sends one protocol request with bounded retry: transport errors
// and 5xx replies (a flaky network, an injected fault, a restarting
// coordinator) retry with jittered doubling backoff; 4xx replies are
// permanent.  Retrying is safe because every handler is idempotent —
// see the protocol notes in serve.go.
func (w *Worker) post(path string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var last error
	backoff := 25 * time.Millisecond
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			time.Sleep(w.jitter(backoff))
			backoff *= 2
		}
		resp, err := w.cfg.Client.Post(w.cfg.Coordinator+path, "application/json", bytes.NewReader(body))
		if err != nil {
			last = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			last = fmt.Errorf("sweepd: %s: HTTP %d", path, resp.StatusCode)
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return last
			}
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(reply)
		resp.Body.Close()
		return err
	}
	return last
}

// sleep waits or returns early on cancellation.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Run joins the coordinator and works until told to drain, the context
// is cancelled, or a poisoned cell crashes the process.  Transient
// coordinator unavailability is retried, not fatal: a worker outliving
// a coordinator restart re-joins and keeps going.
func (w *Worker) Run(ctx context.Context) error {
	retry := 100 * time.Millisecond
	for ctx.Err() == nil {
		var jr JoinReply
		if err := w.post(PathJoin, JoinRequest{WorkerID: w.cfg.ID, PID: os.Getpid()}, &jr); err != nil {
			w.cfg.Logf("sweepd: %s: join: %v", w.cfg.ID, err)
			if !sleep(ctx, w.jitter(retry)) {
				return ctx.Err()
			}
			if retry *= 2; retry > 2*time.Second {
				retry = 2 * time.Second
			}
			continue
		}
		retry = 100 * time.Millisecond
		if jr.Drain {
			return nil
		}
		if jr.JobID == "" || jr.Job == nil {
			if !sleep(ctx, w.jitter(w.idlePoll(jr))) {
				return ctx.Err()
			}
			continue
		}
		err := w.runJob(ctx, jr)
		switch {
		case errors.Is(err, errRejoin):
			continue
		case err != nil:
			return err
		default:
			return nil // drained
		}
	}
	return ctx.Err()
}

// idlePoll picks the no-work poll interval from the join parameters.
func (w *Worker) idlePoll(jr JoinReply) time.Duration {
	d := time.Duration(jr.HeartbeatMs) * time.Millisecond / 2
	if d <= 0 {
		d = 200 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// runJob expands the job and works leases until drain or rejoin.
func (w *Worker) runJob(ctx context.Context, jr JoinReply) error {
	job := *jr.Job
	cells, err := job.Cells()
	if err != nil {
		// The job does not expand on this binary (version skew at the
		// spec level); nothing this worker leases can be right.
		return fmt.Errorf("sweepd: %s: job %s does not expand: %w", w.cfg.ID, jr.JobID, err)
	}
	hb := time.Duration(jr.HeartbeatMs) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	w.cfg.Logf("sweepd: %s: working job %s (%d cells)", w.cfg.ID, jr.JobID, len(cells))
	for ctx.Err() == nil {
		var lr LeaseReply
		if err := w.post(PathLease, LeaseRequest{WorkerID: w.cfg.ID, JobID: jr.JobID, Max: w.cfg.MaxLeases}, &lr); err != nil {
			w.cfg.Logf("sweepd: %s: lease: %v", w.cfg.ID, err)
			if !sleep(ctx, w.jitter(hb/2)) {
				break
			}
			continue
		}
		switch {
		case lr.Drain:
			return nil
		case lr.Rejoin:
			return errRejoin
		case len(lr.Leases) == 0:
			// Nothing leasable right now: cells may be backing off or all
			// in flight elsewhere.  Poll again shortly.
			if !sleep(ctx, w.jitter(w.idlePoll(jr))) {
				return ctx.Err()
			}
			continue
		}
		for _, l := range lr.Leases {
			if err := w.runLease(ctx, jr, cells, l, hb); err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

// runLease executes one leased cell and reports its outcome.
func (w *Worker) runLease(ctx context.Context, jr JoinReply, cells []core.Config, l Lease, hb time.Duration) error {
	if l.CellIndex < 0 || l.CellIndex >= len(cells) || cells[l.CellIndex].CheckpointKey() != l.CellKey {
		// Version skew: this binary expands the job differently than the
		// coordinator.  Refuse the cell rather than compute the wrong one.
		w.cfg.Logf("sweepd: %s: lease %q does not match local expansion — refusing (version skew?)", w.cfg.ID, l.CellKey)
		return w.report(ResultRequest{WorkerID: w.cfg.ID, JobID: jr.JobID,
			CellIndex: l.CellIndex, CellKey: l.CellKey,
			Error: "cell key mismatch: worker expansion disagrees with coordinator (version skew)"})
	}
	if jr.Job.Poisoned(l.CellKey) {
		// The chaos harness's forced crash: kill the whole process before
		// simulating, every attempt, so the coordinator's kill budget —
		// not any worker-side cleverness — is what contains the cell.
		w.cfg.Logf("sweepd: %s: leased poisoned cell %s — crashing", w.cfg.ID, l.CellKey)
		w.cfg.CrashFn(l.CellKey)
		return ErrPoisoned
	}

	// Heartbeat this lease until the cell resolves; a cancellation from
	// the coordinator (lease expired, job replaced) aborts the cell.
	cellCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	var coordCancelled bool // written before cancel(), read after <-hbDone
	go func() {
		defer close(hbDone)
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-cellCtx.Done():
				return
			case <-t.C:
			}
			var hr HeartbeatReply
			err := w.post(PathHeartbeat, HeartbeatRequest{WorkerID: w.cfg.ID, JobID: jr.JobID, CellKeys: []string{l.CellKey}}, &hr)
			if err != nil {
				continue // transient; the lease survives until TTL
			}
			for _, k := range hr.Cancelled {
				if k == l.CellKey {
					w.cfg.Logf("sweepd: %s: lease %s cancelled by coordinator", w.cfg.ID, l.CellKey)
					coordCancelled = true
					cancel()
					return
				}
			}
		}
	}()
	results, err := core.RunCells([]core.Config{cells[l.CellIndex]}, core.ParallelOptions{
		Workers:     1,
		Context:     cellCtx,
		CellTimeout: w.cfg.CellTimeout,
	})
	cancel()
	<-hbDone

	req := ResultRequest{WorkerID: w.cfg.ID, JobID: jr.JobID, CellIndex: l.CellIndex, CellKey: l.CellKey}
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err() // worker shutting down; the lease will expire
		}
		if coordCancelled {
			// The coordinator revoked this lease (expiry, reassignment);
			// the abort it forced is its own bookkeeping, not a failure of
			// the cell — reporting it as one would charge an innocent
			// straggler's failure budget.
			return nil
		}
		req.Error = err.Error()
	} else {
		payload, perr := core.EncodeResult(results[0])
		if perr != nil {
			req.Error = "encode: " + perr.Error()
		} else {
			req.OK, req.Payload = true, payload
		}
	}
	return w.report(req)
}

// report delivers a result; post's bounded retry absorbs transient
// faults, and an undeliverable result is dropped (the lease expires
// and the cell re-runs elsewhere — first result wins makes the retry
// and the re-run equally correct).
func (w *Worker) report(req ResultRequest) error {
	var reply ResultReply
	if err := w.post(PathResult, req, &reply); err != nil {
		w.cfg.Logf("sweepd: %s: result %s undeliverable: %v", w.cfg.ID, req.CellKey, err)
	}
	return nil
}
