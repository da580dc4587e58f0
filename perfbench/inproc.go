package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry/agg"
)

// gridRows is the Table II selection a grid job expands, scaled the way
// capbench -scale and sweepd.JobSpec scale it.
func gridRows(w workload) []core.TableIIRow {
	var rows []core.TableIIRow
	for _, r := range core.TableII {
		if w.platform == "all" || r.Platform == w.platform {
			rows = append(rows, core.ScaleRow(r, w.scale))
		}
	}
	return rows
}

// inproc runs each job as `capbench grid -checkpoint DIR -agg-dir DIR`
// does: a fresh journal, an event bus with its events.jsonl sink, an
// aggregator streaming into stream.jsonl, and core.RunGrid over a pool.
type inproc struct {
	rc  runConfig
	dir string
	// Traced jobs time every cell from the pool's events: busy is
	// Σ finish − Σ start in nanoseconds, poolWall the traced jobs' wall.
	busy     atomic.Int64
	poolWall time.Duration
	base     time.Time
	// probe is the journal and aggregator opened at set-up, which is
	// what accepting work takes in-process; jobs open their own.
	probe *gridJob
}

// gridJob is one open in-process sweep.
type gridJob struct {
	journal  *ckpt.Journal
	bus      *obs.Bus
	eventLog *obs.FileSink
	agg      *agg.Aggregator
	aggDir   string
}

func newInproc(rc runConfig, dir string) (harness, error) {
	probe, err := openGridJob(filepath.Join(dir, "probe"), rc.w, 0)
	if err != nil {
		return nil, err
	}
	return &inproc{rc: rc, dir: dir, base: time.Now(), probe: probe}, nil
}

// openGridJob opens the journal and the aggregation plane for one job.
func openGridJob(dir string, w workload, seed int64) (*gridJob, error) {
	identity := fmt.Sprintf("capbench|grid|platform=%s|scale=%d|scheduler=|seed=%d|faults=|trace=false|budget=15", w.platform, w.scale, seed)
	journal, err := ckpt.Create(filepath.Join(dir, "ckpt"), ckpt.Manifest{Identity: identity, RootSeed: seed})
	if err != nil {
		return nil, err
	}
	g := &gridJob{journal: journal, bus: obs.NewBus(), aggDir: filepath.Join(dir, "agg")}
	bus := g.bus
	journal.SetOnCommit(func(r ckpt.Record) {
		bus.Publish(obs.Event{Type: obs.CheckpointCommitted, Cell: r.Key, Status: string(r.Status)})
	})
	if err := os.MkdirAll(g.aggDir, 0o755); err != nil {
		journal.Close()
		return nil, err
	}
	if g.eventLog, err = obs.NewFileSink(filepath.Join(g.aggDir, "events.jsonl"), bus); err != nil {
		journal.Close()
		return nil, err
	}
	sink, err := agg.NewJSONLSink(filepath.Join(g.aggDir, agg.StreamFile))
	if err != nil {
		g.eventLog.Close()
		journal.Close()
		return nil, err
	}
	g.agg = agg.New(sink, agg.ExporterConfig{})
	return g, nil
}

// close seals the job in capbench's order: aggregator, artifacts,
// event log, journal.
func (g *gridJob) close() error {
	err := g.agg.Close()
	if werr := g.agg.WriteArtifacts(g.aggDir); err == nil {
		err = werr
	}
	if eerr := g.eventLog.Close(); err == nil {
		err = eerr
	}
	if jerr := g.journal.Close(); err == nil {
		err = jerr
	}
	return err
}

func (h *inproc) runJob(k int, seed int64, traced bool) (*jobOutcome, error) {
	dir := filepath.Join(h.dir, fmt.Sprintf("job-%04d", k))
	g, err := openGridJob(dir, h.rc.w, seed)
	if err != nil {
		return nil, err
	}
	spec := core.GridSpec{Rows: gridRows(h.rc.w), RootSeed: seed}
	cells, err := core.GridCells(spec)
	if err != nil {
		g.close()
		return nil, err
	}
	var first atomic.Int64
	start := time.Now()
	if traced {
		g.bus.SetOnPublish(func(t obs.EventType) {
			switch t {
			case obs.CellStarted:
				h.busy.Add(-int64(time.Since(h.base)))
			case obs.CellFinished:
				h.busy.Add(int64(time.Since(h.base)))
			}
		})
	}
	popt := core.ParallelOptions{
		Workers:    h.rc.workers,
		Checkpoint: g.journal,
		Rollups:    g.agg,
		Events:     g.bus,
		OnProgress: func(done, total int) {
			if done == 1 {
				first.CompareAndSwap(0, int64(time.Since(start)))
			}
		},
	}
	_, runErr := core.RunGrid(spec, popt)
	sweepEnd := time.Now()
	err = g.close()
	end := time.Now()
	if runErr != nil {
		return nil, runErr
	}
	if err != nil {
		return nil, err
	}
	if traced {
		h.poolWall += sweepEnd.Sub(start)
	}
	return &jobOutcome{
		seed: seed, cells: cells, traced: traced,
		journalDir:  filepath.Join(dir, "ckpt"),
		streamFile:  filepath.Join(g.aggDir, agg.StreamFile),
		verify:      h.rc.w.verify,
		latency:     end.Sub(start),
		firstResult: time.Duration(first.Load()),
	}, nil
}

func (h *inproc) rpcs() (int64, int64) { return 0, 0 }
func (h *inproc) failureEvents() int64 { return 0 }
func (h *inproc) journalRoot() string  { return h.dir }
func (h *inproc) close() error         { return h.probe.close() }

func (h *inproc) layers(m map[string]float64) {
	m["core.pool_busy_frac"] = ratio(float64(h.busy.Load()), float64(h.rc.workers)*float64(h.poolWall))
}

// journalDigests digests every done record the journal holds, decoding
// each payload with the checkpoint codec: the digest of what a resume
// would restore.  It also counts the decoded results' simulated tasks.
func journalDigests(dir string, cells []core.Config) (map[string]string, int64, error) {
	byKey := make(map[string]core.Config, len(cells))
	for _, c := range cells {
		byKey[c.CheckpointKey()] = c
	}
	files, err := filepath.Glob(filepath.Join(dir, "journal*.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]string, len(cells))
	var tasks int64
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
		for sc.Scan() {
			var r ckpt.Record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, 0, fmt.Errorf("%s: %w", path, err)
			}
			cfg, ok := byKey[r.Key]
			if r.Status != ckpt.StatusDone || !ok {
				continue
			}
			res, err := core.DecodeResult(r.Payload)
			if err != nil {
				f.Close()
				return nil, 0, fmt.Errorf("%s: %s: %w", path, r.Key, err)
			}
			if out[r.Key], err = benchcheck.Digest(cfg, res); err != nil {
				f.Close()
				return nil, 0, err
			}
			tasks += int64(res.Stats.TotalTasks)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, 0, err
		}
	}
	return out, tasks, nil
}

// streamRows counts the rollup rows in a stream.jsonl.
func streamRows(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return bytes.Count(b, []byte{'\n'}), nil
}
