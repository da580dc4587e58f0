package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricSets are the metrics BENCHMARK.json declares: end-to-end ones,
// reported by --trace 0, and per-layer ones, reported by --trace 1.
// Failed operations over attempted travel in the result's failed and
// attempted fields (and, with rollups missing from stream.jsonl added,
// as error_frac in the traced run): the ratio is 0 on a healthy run,
// so it cannot be a bounded metric.  first_result_s is per-layer:
// in-process it is one ~30 ms cell per job, too short a window to hold
// a bound on a shared host.  A per-layer metric with no
// layer in a workload (sweepd on the in-process grid, the pool in the
// service) reports 0 and is listed as not applicable in the run report;
// so do round trips without a sample (no heartbeat is sent while every
// cell is shorter than the heartbeat interval).
type metricSets struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadMetrics reads the metric names and units from BENCHMARK.json.
func loadMetrics(path string) (*metricSets, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms metricSets
	if err := json.Unmarshal(b, &ms); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(ms.EndToEnd) == 0 || len(ms.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end or per_layer metrics", path)
	}
	return &ms, nil
}

// layerEntry records, before any change is measured, which end-to-end
// metric a layer's numbers should move and on which workload they
// should stay put.
type layerEntry struct {
	layer   string
	metrics []string
	moves   string
	steady  string
}

var layerMap = []layerEntry{
	{"chameleon DAG build (incl. starpu.Submit dependency inference)",
		[]string{"chameleon.build_ms_per_cell", "chameleon.tasks_per_cell"},
		"sim_tasks_per_s, cells_per_s on paper_grid_inproc", "small_jobs_service"},
	{"starpu measured pass (eventsim, dmdas, coherence, eviction, perfmodel estimates)",
		[]string{"starpu.run_ms_per_cell", "starpu.run_ns_per_task", "starpu.evictions_per_cell", "starpu.allocs_per_task"},
		"cells_per_s, sim_tasks_per_s, job_latency_p50_s on paper_grid_inproc", "small_jobs_service"},
	{"starpu calibration + platform setup",
		[]string{"starpu.calibrate_ms_per_cell", "platform.setup_ms_per_cell"},
		"cells_per_s on small_jobs_service (a fixed per-cell cost)", "paper_grid_inproc"},
	{"trace + core codec",
		[]string{"trace.collect_us_per_cell", "core.encode_us_per_cell", "core.decode_us_per_cell", "core.result_bytes_per_cell"},
		"job_latency_p50_s on small_jobs_service", "paper_grid_inproc"},
	{"ckpt journal",
		[]string{"ckpt.commit_ms_p50", "ckpt.commit_ms_p99", "ckpt.records_per_cell", "ckpt.bytes_per_cell"},
		"job_latency_p50_s, cells_per_s on small_jobs_service", "paper_grid_inproc"},
	{"telemetry/agg",
		[]string{"agg.observe_us_per_cell", "agg.artifacts_ms_per_job", "agg.stream_rows_missing"},
		"job_latency_p50_s on small_jobs_service", "paper_grid_inproc"},
	{"core executor (RunCells pool)",
		[]string{"core.pool_busy_frac"},
		"cells_per_s on paper_grid_inproc", "-"},
	{"sweepd dispatch",
		[]string{"sweepd.idle_wait_ms_p50", "sweepd.{lease,result,heartbeat}_rtt_ms_{p50,p99}", "sweepd.{lease,result}_handler_ms_{p50,p99}",
			"sweepd.lease_calls_per_cell", "sweepd.empty_lease_frac", "sweepd.wire_bytes_per_cell", "sweepd.worker_busy_frac"},
		"job_latency_*, cells_per_s (and the traced first_result_s) on small_jobs_service", "paper_grid_inproc"},
	{"whole cell (untraced core.Run) and the remainder no layer claims",
		[]string{"core.run_ms_per_cell", "other_ms_per_cell"},
		"cells_per_s on every workload", "-"},
}
