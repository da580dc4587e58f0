// Command perfbench is the repository's end-to-end benchmark of the
// sweep path: the paper's plan × Table II grid, run the two ways users
// run it — in-process (core.RunGrid with a checkpoint journal and an
// aggregator attached, as `capbench grid -checkpoint -agg-dir` does) and
// through a sweepd coordinator with two in-process workers on loopback
// HTTP (as `capbench grid -submit` against capserved does).
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload is a closed loop: one client, one job in flight, the
// next job submitted when the previous one has finished and written its
// artifacts.  Each job's root seed derives from --seed, so the same seed
// gives the same jobs.  After the timed window every job must have made
// a benchcheck digest durable for each of its cells, and its cells (a
// seeded sample of them on the paper-size grid) are recomputed with
// core.Run and their digests compared; a missing or different digest
// makes the result line report "correct": false and no numbers.
//
// Rates and job latencies leave out the time the hypervisor gave this
// machine's CPUs to other guests (steal in /proc/stat, per CPU): on a
// shared host it measures the neighbours, not the program.  The report
// keeps each job's raw wall time, steal and CPU time beside them.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 is a separate run
// that alternates untraced and traced jobs (the tracing overhead is the
// difference between the two), times the service layers from outside
// (a timing http.RoundTripper in each worker, a timing wrapper around
// the coordinator's handler) and re-drives the first job's cells layer
// by layer through the packages' public entry points.
//
// The last line of standard output is the result object; the lines
// before it are a human-readable table and a JSON report carrying the
// host fingerprint, sample counts and quality-control flags.
//
// Seeds below 1000 were used while building the benchmark; check claims
// on seeds of 1000 and above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one named input mix of the benchmark; BENCHMARK.json
// records why each was chosen.
type workload struct {
	name string
	// service routes jobs through a sweepd coordinator and workers
	// instead of core.RunGrid in-process.
	service bool
	// platform filters Table II rows ("all" keeps every platform); scale
	// divides matrix orders as capbench -scale does.
	platform string
	scale    int
	// verify is how many cells of each job verification recomputes with
	// core.Run after the window (0 for every cell).
	verify int
}

var workloads = []workload{
	// Simulation-bound: POTRF is 37,820 tasks per cell with thousands
	// of modelled GPU evictions; journal and aggregation cost under 1%.
	// Recomputing all 36 cells of every ~10 s job would double the run,
	// so each job has a seeded sample of its cells recomputed.
	{name: "paper_grid_inproc", platform: "32-AMD-4-A100", scale: 1, verify: 4},
	// Dispatch-bound: idle polls, lease and result round trips, three
	// fsyncs per cell, codec and aggregation outweigh the simulation.
	{name: "small_jobs_service", service: true, platform: "all", scale: 8},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if child, err := setupChild(); child {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench set-up: %v\n", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed; every job seed derives from it")
	secs := flag.Float64("seconds", 10, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *secs <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	sets, err := loadMetrics("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	metrics := sets.EndToEnd
	if *traceFlag == 1 {
		metrics = sets.PerLayer
	}
	base, err := filepath.Abs(filepath.Join(".bench_build", "runs"))
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := run(runConfig{
		w:       w,
		seed:    *seed,
		window:  time.Duration(*secs * float64(time.Second)),
		trace:   *traceFlag == 1,
		dir:     dir,
		workers: 2,
		redrive: 10 * time.Second,
		metrics: metrics,
	})
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printTable(os.Stdout, out)
	rep, _ := json.Marshal(map[string]any{"perfbench_report": out.report})
	fmt.Println(string(rep))
	line, _ := json.Marshal(out.result)
	fmt.Println(string(line))
	if !out.result.Correct {
		// The run completed but its outputs are wrong: the result line
		// says so and carries no numbers.
		fmt.Fprintf(os.Stderr, "perfbench %s: outputs incorrect: %s\n", w.name, out.report.Mismatch)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printTable renders the metrics, one per line, sorted by name.
func printTable(f io.Writer, out *runOutput) {
	names := make([]string, 0, len(out.result.Metrics))
	for n := range out.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end-to-end"
	if out.report.Traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(f, "perfbench %s — %s metrics, %d job(s), %d cell(s)\n", out.report.Workload, mode, out.report.Jobs, out.report.Cells)
	for _, n := range names {
		m := out.result.Metrics[n]
		flag := ""
		for _, q := range out.report.QC {
			if q.Metric == n {
				flag = "  " + q.Flag
			}
		}
		fmt.Fprintf(f, "  %-34s %16.6g %-6s%s\n", n, m.Value, m.Unit, flag)
	}
	if out.report.Traced {
		fmt.Fprintln(f, "layer map (layer: metrics -> end-to-end metric it should move, on which workload):")
		for _, l := range layerMap {
			fmt.Fprintf(f, "  %s: %s -> %s (steady on %s)\n", l.layer, strings.Join(l.metrics, ", "), l.moves, l.steady)
		}
	}
}

// fingerprint identifies the host and build a result was measured on.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Describe   string `json:"git_describe"`
	JournalFS  string `json:"journal_fs"`
}

func hostFingerprint(dir string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Describe:   gitDescribe(),
		JournalFS:  fsType(dir),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir (the journals' filesystem).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
