package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/chameleon"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/powercap"
	"repro/internal/prec"
	"repro/internal/starpu"
	"repro/internal/telemetry/agg"
	"repro/internal/trace"
	"repro/internal/units"
)

// layerClock accumulates the wall time spent in each layer's public
// entry points while a job's cells are re-driven one by one.
type layerClock struct {
	cells                              int
	tasks, evictions, mallocs          int64
	coreRun, platform, calibrate       time.Duration
	build, run, collect                time.Duration
	encode, decode, observe, artifacts time.Duration
	resultBytes                        int64
	commits                            []time.Duration
}

// redrive re-runs a finished job's cells serially, in passes until the
// budget is spent (at least one pass: small cells repeat until the
// per-layer windows are long enough to compare, heavy cells run once).
// Each cell runs first through core.Run (the untraced per-cell time and
// the digest reference) and then layer by layer in core.Run's order — platform.New and caps, the
// calibration runtime, chameleon.NewDesc + Potrf/Gemm, Runtime.Run,
// trace.Collect — followed by the sweep path's per-cell work outside
// core.Run: core.EncodeResult/DecodeResult, Journal.Commit (a running
// and a done record, as the executor writes), core.BuildRollup +
// Aggregator.ObserveCell, and once per job the aggregator's close and
// artifact write.  A re-driven cell whose digest differs from core.Run's
// (or from the job's own) invalidates the per-layer table: the returned
// mismatch is then non-empty.
func redrive(job *jobOutcome, dir string, budget time.Duration) (m map[string]float64, qc []qcFlag, mismatch string, err error) {
	journal, err := ckpt.Create(filepath.Join(dir, "ckpt"), ckpt.Manifest{Identity: "perfbench-redrive", RootSeed: job.seed})
	if err != nil {
		return nil, nil, "", err
	}
	defer journal.Close()
	if err := os.MkdirAll(filepath.Join(dir, "agg"), 0o755); err != nil {
		return nil, nil, "", err
	}
	sink, err := agg.NewJSONLSink(filepath.Join(dir, "agg", agg.StreamFile))
	if err != nil {
		return nil, nil, "", err
	}
	aggr := agg.New(sink, agg.ExporterConfig{})

	var c layerClock
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		if mismatch, err := c.pass(job, journal, aggr); mismatch != "" || err != nil {
			aggr.Close()
			return nil, nil, mismatch, err
		}
	}
	t := time.Now()
	err = aggr.Close()
	if err == nil {
		err = aggr.WriteArtifacts(filepath.Join(dir, "agg"))
	}
	c.artifacts = time.Since(t)
	if err != nil {
		return nil, nil, "", err
	}
	m, qc = c.metrics()
	return m, qc, "", nil
}

// pass re-drives every cell of the job once.
func (c *layerClock) pass(job *jobOutcome, journal *ckpt.Journal, aggr *agg.Aggregator) (mismatch string, err error) {
	for _, cfg := range job.cells {
		key := cfg.CheckpointKey()
		t := time.Now()
		ref, err := core.Run(cfg)
		c.coreRun += time.Since(t)
		if err != nil {
			return "", fmt.Errorf("core.Run %s: %w", key, err)
		}
		want, err := benchcheck.Digest(cfg, ref)
		if err != nil {
			return "", err
		}
		if job.digests[key] != want {
			return fmt.Sprintf("cell %s: core.Run digest %.12s, job digest %.12s", key, want, job.digests[key]), nil
		}
		res, err := c.cell(cfg)
		if err != nil {
			return "", fmt.Errorf("re-drive %s: %w", key, err)
		}
		if got, err := benchcheck.Digest(cfg, res); err != nil || got != want {
			return fmt.Sprintf("cell %s: re-driven digest %.12s, core.Run digest %.12s", key, got, want), err
		}

		t = time.Now()
		payload, err := core.EncodeResult(res)
		c.encode += time.Since(t)
		if err != nil {
			return "", err
		}
		c.resultBytes += int64(len(payload))
		t = time.Now()
		_, err = core.DecodeResult(payload)
		c.decode += time.Since(t)
		if err != nil {
			return "", err
		}
		for _, r := range []ckpt.Record{{Key: key, Status: ckpt.StatusRunning}, {Key: key, Status: ckpt.StatusDone, Payload: payload}} {
			t = time.Now()
			err := journal.Commit(r)
			c.commits = append(c.commits, time.Since(t))
			if err != nil {
				return "", err
			}
		}
		t = time.Now()
		aggr.ObserveCell(core.BuildRollup(cfg, res))
		c.observe += time.Since(t)
	}
	return "", nil
}

// cell re-drives one cell through the public entry points core.Run
// calls, timing each; it supports the configurations grid jobs expand
// to (no faults, telemetry, tracing, CPU caps or stale models).
func (c *layerClock) cell(cfg core.Config) (*core.Result, error) {
	if !cfg.Faults.Zero() || cfg.Trace || cfg.Telemetry != nil || len(cfg.CPUCaps) > 0 || cfg.StaleModels || cfg.Model != nil || cfg.SkipCalibration {
		return nil, fmt.Errorf("configuration outside the re-drivable grid shape")
	}
	c.cells++
	t := time.Now()
	p, err := platform.New(cfg.Spec)
	if err != nil {
		return nil, err
	}
	plan := cfg.Plan
	if plan == nil {
		plan = powercap.MustParsePlan(strings.Repeat("H", cfg.Spec.GPUCount))
	}
	p.SetCapBreaker(cfg.CapBreaker)
	if err := p.SetGPUCaps(plan.Caps(cfg.Spec.GPUArch, cfg.BestFrac)); err != nil {
		return nil, err
	}
	c.platform += time.Since(t)

	t = time.Now()
	model := perfmodel.NewHistory()
	calRT, err := starpu.New(p, starpu.Config{Scheduler: "calibrate", Model: model, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	cal := cfg.Workload
	if nt := (cal.N + cal.NB - 1) / cal.NB; nt > 6 {
		cal.N = cal.NB * 6
	}
	if err := submitWorkload(calRT, cal); err != nil {
		return nil, err
	}
	if _, err := calRT.Run(); err != nil {
		return nil, err
	}
	c.calibrate += time.Since(t)

	t = time.Now()
	region, err := p.RAPL.Start()
	if err != nil {
		return nil, err
	}
	gpuStart, err := gpuEnergies(p)
	if err != nil {
		return nil, err
	}
	c.platform += time.Since(t)

	sched := cfg.Scheduler
	if sched == "" {
		sched = "dmdas"
	}
	t = time.Now()
	rt, err := starpu.New(p, starpu.Config{Scheduler: sched, Model: model, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := submitWorkload(rt, cfg.Workload); err != nil {
		return nil, err
	}
	c.build += time.Since(t)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t = time.Now()
	makespan, err := rt.Run()
	c.run += time.Since(t)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	c.mallocs += int64(ms1.Mallocs - ms0.Mallocs)
	c.evictions += int64(rt.MemoryStats().Evictions)

	t = time.Now()
	cpuJoules, err := region.Stop()
	if err != nil {
		return nil, err
	}
	gpuEnd, err := gpuEnergies(p)
	if err != nil {
		return nil, err
	}
	c.platform += time.Since(t)

	t = time.Now()
	stats := trace.Collect(rt)
	c.collect += time.Since(t)
	c.tasks += int64(stats.TotalTasks)

	res := &core.Result{
		Plan:     plan.String(),
		Workload: cfg.Workload,
		Makespan: makespan,
		Device:   make(map[string]units.Joules),
		Stats:    stats,
	}
	for i, j := range cpuJoules {
		res.Device[fmt.Sprintf("CPU%d", i)] = j
		res.Energy += j
	}
	for i := range gpuEnd {
		j := units.Joules(float64(gpuEnd[i]-gpuStart[i]) / 1000)
		res.Device[fmt.Sprintf("GPU%d", i)] = j
		res.Energy += j
	}
	flops := cfg.Workload.Op.Flops(cfg.Workload.N)
	res.Rate = units.Rate(flops, makespan)
	if res.Energy > 0 {
		res.Efficiency = float64(flops) / float64(res.Energy) / units.Giga
	}
	if len(p.BreakerTrips()) > 0 {
		return nil, fmt.Errorf("cap-write breaker tripped in a fault-free cell")
	}
	return res, nil
}

// metrics turns the clock into the per-layer table.  A layer whose
// summed time is under qcMinWindow is flagged: its per-cell mean rests
// on too short a window to compare.
func (c *layerClock) metrics() (map[string]float64, []qcFlag) {
	n := float64(c.cells)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	m := map[string]float64{
		"chameleon.build_ms_per_cell":  ms(c.build),
		"chameleon.tasks_per_cell":     float64(c.tasks) / n,
		"starpu.run_ms_per_cell":       ms(c.run),
		"starpu.run_ns_per_task":       ratio(float64(c.run), float64(c.tasks)),
		"starpu.evictions_per_cell":    float64(c.evictions) / n,
		"starpu.allocs_per_task":       ratio(float64(c.mallocs), float64(c.tasks)),
		"starpu.calibrate_ms_per_cell": ms(c.calibrate),
		"platform.setup_ms_per_cell":   ms(c.platform),
		"trace.collect_us_per_cell":    us(c.collect),
		"core.encode_us_per_cell":      us(c.encode),
		"core.decode_us_per_cell":      us(c.decode),
		"core.result_bytes_per_cell":   float64(c.resultBytes) / n,
		"core.run_ms_per_cell":         ms(c.coreRun),
		"other_ms_per_cell":            ms(c.coreRun - c.platform - c.calibrate - c.build - c.run - c.collect),
		"ckpt.commit_ms_p50":           pct(c.commits, 0.5),
		"ckpt.commit_ms_p99":           pct(c.commits, 0.99),
		"agg.observe_us_per_cell":      us(c.observe),
		"agg.artifacts_ms_per_job":     float64(c.artifacts) / float64(time.Millisecond),
	}
	var commitSum time.Duration
	for _, d := range c.commits {
		commitSum += d
	}
	var qc []qcFlag
	for _, w := range []struct {
		metric string
		d      time.Duration
	}{
		{"chameleon.build_ms_per_cell", c.build},
		{"starpu.run_ms_per_cell", c.run},
		{"starpu.calibrate_ms_per_cell", c.calibrate},
		{"platform.setup_ms_per_cell", c.platform},
		{"trace.collect_us_per_cell", c.collect},
		{"core.encode_us_per_cell", c.encode},
		{"core.decode_us_per_cell", c.decode},
		{"core.run_ms_per_cell", c.coreRun},
		{"ckpt.commit_ms_p50", commitSum},
		{"agg.observe_us_per_cell", c.observe},
		{"agg.artifacts_ms_per_job", c.artifacts},
	} {
		if w.d < qcMinWindow {
			qc = append(qc, qcFlag{Metric: w.metric, Flag: "QC_CRITICAL_TOO_SHORT", WindowS: w.d.Seconds()})
		}
	}
	return m, qc
}

// gpuEnergies snapshots every GPU's cumulative energy counter (mJ)
// through the NVML facade, as core.Run brackets its measured pass.
func gpuEnergies(p *platform.Platform) ([]uint64, error) {
	n, ret := p.NVML.DeviceGetCount()
	if err := ret.Error(); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	for i := range out {
		h, ret := p.NVML.DeviceGetHandleByIndex(i)
		if err := ret.Error(); err != nil {
			return nil, err
		}
		e, ret := h.GetTotalEnergyConsumption()
		if err := ret.Error(); err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// submitWorkload builds a workload's DAG through chameleon, as core.Run
// does (cost-only descriptors).
func submitWorkload(rt *starpu.Runtime, w core.Workload) error {
	if w.Precision == prec.Single {
		return submitTyped[float32](rt, w)
	}
	return submitTyped[float64](rt, w)
}

func submitTyped[T linalg.Float](rt *starpu.Runtime, w core.Workload) error {
	switch w.Op {
	case core.POTRF:
		d, err := chameleon.NewDesc[T](rt, w.N, w.NB, false)
		if err != nil {
			return err
		}
		return chameleon.Potrf(rt, d)
	case core.GEMM:
		var descs [3]*chameleon.Desc[T]
		for i := range descs {
			d, err := chameleon.NewDesc[T](rt, w.N, w.NB, false)
			if err != nil {
				return err
			}
			descs[i] = d
		}
		return chameleon.Gemm[T](rt, 1, descs[0], descs[1], 0, descs[2])
	default:
		return fmt.Errorf("operation %s is not part of the grid", w.Op)
	}
}
