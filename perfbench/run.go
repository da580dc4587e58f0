package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/core"
)

// runConfig is one benchmark run.
type runConfig struct {
	w      workload
	seed   int64
	window time.Duration
	trace  bool
	// dir holds the run's journals and artifacts; it must be on the
	// filesystem the numbers are meant to describe.
	dir string
	// workers is the pool size in-process and the fleet size in the
	// service, sized for a two-CPU host.
	workers int
	// redrive is how long the traced run keeps re-driving the first
	// job's cells (at least one pass).
	redrive time.Duration
	// metrics are the metrics this run reports, as BENCHMARK.json
	// declares them for its mode.
	metrics []metricDef
}

// setupReps is how many times a run times a set-up, each in a fresh
// process (see timeSetup).  The set-ups are spread evenly through the
// timed window, run between jobs with the clock paused, so setup_s —
// their median — samples the same host state as the rest of the run
// rather than its first second.
const setupReps = 40

// qcMinWindow is the shortest timed window whose rate is comparable;
// shorter windows are flagged QC_CRITICAL_TOO_SHORT.
const qcMinWindow = time.Second

// qcFlag marks a metric whose timed window is too short to compare.
type qcFlag struct {
	Metric  string  `json:"metric"`
	Flag    string  `json:"flag"`
	WindowS float64 `json:"window_s"`
}

// report is the run's metadata: what the numbers rest on.
type report struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	JobSeeds    []int64 `json:"job_seeds"`
	Traced      bool    `json:"traced"`
	Jobs        int     `json:"jobs"`
	Cells       int     `json:"cells"`
	WindowS     float64 `json:"window_s"`
	TailPct     float64 `json:"job_latency_tail_percentile"`
	TailSamples int     `json:"job_latency_samples"`
	// StealS is the window's time stolen by the hypervisor, per CPU;
	// WindowS includes it, the rates exclude it.
	StealS float64 `json:"steal_s"`
	// Per-job samples, in job order.  JobLatencyS excludes the steal
	// JobWallS includes; JobCPUS is the process's CPU time.
	JobLatencyS  []float64   `json:"job_latency_s"`
	JobWallS     []float64   `json:"job_wall_s"`
	JobStealS    []float64   `json:"job_steal_s"`
	JobCPUS      []float64   `json:"job_cpu_s"`
	SetupS       []float64   `json:"setup_s"`
	FirstResultS []float64   `json:"first_result_s"`
	IdleWaitS    []float64   `json:"idle_wait_s,omitempty"`
	Host         fingerprint `json:"host"`
	QC           []qcFlag    `json:"qc,omitempty"`
	// Overhead compares traced with untraced jobs of the same run.
	TracedJobs   int    `json:"traced_jobs,omitempty"`
	UntracedJobs int    `json:"untraced_jobs,omitempty"`
	Mismatch     string `json:"digest_mismatch,omitempty"`
	// Failures breaks the result's failed count down by kind.
	Failures failureCounts `json:"failures"`
	// NotApplicable lists per-layer metrics this workload has no layer
	// for; they report 0.
	NotApplicable []string `json:"not_applicable,omitempty"`
}

// failureCounts are the failed operations of a run, by kind.
type failureCounts struct {
	// Cells did not finish done: failed, hung, panicked or quarantined.
	Cells int `json:"cells"`
	// StreamRowsMissing are rollups absent from stream.jsonl.  They
	// count in error_frac but not in the result's failed field (see
	// run).
	StreamRowsMissing int `json:"stream_rows_missing"`
	// RPCs answered 429 or 5xx, or failed in transport.
	RPCs int64 `json:"rpcs"`
	// Events are worker-reported cell errors, expired leases and
	// quarantines the coordinator published.
	Events int64 `json:"events"`
}

type runOutput struct {
	result result
	report report
}

// jobOutcome is what one finished job left behind.
type jobOutcome struct {
	seed   int64
	cells  []core.Config
	traced bool
	// Where the job's outputs are, read after the timed window: the
	// service's digests.json or the in-process journal, and the
	// aggregator's stream.jsonl.
	digestsFile string
	journalDir  string
	streamFile  string
	// digests maps CheckpointKey to the benchcheck digest of the
	// result the job made durable.
	digests map[string]string
	// verify is how many of the job's cells verification recomputes
	// (0 for every cell).
	verify      int
	latency     time.Duration
	firstResult time.Duration
	// steal is the time, per CPU, the hypervisor gave this machine's
	// CPUs to other guests during the job; cpu is the process's CPU
	// time over the job.
	steal, cpu time.Duration
	// idleWait is submit to first lease granted (service only).
	idleWait time.Duration
	// tasks counts the simulated tasks of the job's results, decoded
	// from the journal in-process and from the reference run otherwise.
	tasks int64
	// failed counts failed, hung, panicked and quarantined cells.
	failed     int
	streamRows int
}

// harness runs jobs against one set-up system.
type harness interface {
	runJob(k int, seed int64, traced bool) (*jobOutcome, error)
	// rpcs reports protocol calls attempted and failed (429, 5xx or a
	// transport error); zero in-process.
	rpcs() (attempted, failed int64)
	// failureEvents counts failure events the system published
	// (worker-reported cell errors, expired leases, quarantines).
	failureEvents() int64
	// layers adds the traced service or pool metrics to m.
	layers(m map[string]float64)
	// journalRoot is the directory every journal of the run lives under.
	journalRoot() string
	close() error
}

func jobSeed(root int64, k int) int64 {
	return core.CellSeed(root, "perfbench/job/"+strconv.Itoa(k))
}

func run(rc runConfig) (*runOutput, error) {
	out := &runOutput{}
	rep := &out.report
	rep.Workload, rep.Seed, rep.Traced = rc.w.name, rc.seed, rc.trace
	rep.Host = hostFingerprint(rc.dir)

	h, err := setUp(rc, filepath.Join(rc.dir, "setup"))
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var setups []time.Duration

	if !rc.w.service {
		// An in-process job stands for a capbench process, which loads its
		// code once before sweeping: one unmeasured scale-8 job pages the
		// code in, so the first timed job is not the only cold one.  (The
		// service is long-lived; its first job is measured as it comes.)
		warm := &inproc{rc: rc, dir: filepath.Join(rc.dir, "warm-up"), base: time.Now()}
		warm.rc.w.scale = 8
		if _, err := warm.runJob(0, jobSeed(rc.seed, -1), false); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var jobs []*jobOutcome
	// paused is the time the set-up samples took; it is not part of the
	// window, and neither are their allocations.
	var paused time.Duration
	var pausedAlloc uint64
	start := time.Now()
	active := func() time.Duration { return time.Since(start) - paused }
	// sampleSetups runs the set-ups due by now (all of them once the
	// window is over).
	sampleSetups := func(final bool) error {
		due := setupReps
		if !final {
			due = min(setupReps, 1+int(int64(setupReps)*int64(active())/int64(rc.window)))
		}
		if len(setups) >= due {
			return nil
		}
		t0 := time.Now()
		// A fresh process sets up on an empty heap and with no writes of
		// its own pending: collect the jobs' garbage and flush the files
		// the last job left unsynced first, so neither a background
		// collection nor the writeback an fsync forces on ext4 lands in
		// some set-ups and not others.
		runtime.GC()
		if len(jobs) > 0 {
			if err := flushTree(filepath.Dir(jobs[len(jobs)-1].streamFile)); err != nil {
				return err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for len(setups) < due {
			dir := filepath.Join(rc.dir, fmt.Sprintf("setup-%d", len(setups)))
			d, err := timeSetup(rc, dir)
			if err == nil {
				err = flushTree(dir)
			}
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d)
		}
		paused += time.Since(t0)
		runtime.ReadMemStats(&m1)
		pausedAlloc += m1.TotalAlloc - m0.TotalAlloc
		return nil
	}
	for k := 0; k == 0 || active() < rc.window; k++ {
		if err := sampleSetups(false); err != nil {
			h.close()
			return nil, err
		}
		// The traced run alternates untraced and traced jobs, starting
		// untraced, so the overhead is measured under the same drift.
		traced := rc.trace && k%2 == 1
		seed := jobSeed(rc.seed, k)
		cpu0, steal0 := cpuTime(), stealTime()
		job, err := h.runJob(k, seed, traced)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("job %d (seed %d): %w", k, seed, err)
		}
		job.cpu, job.steal = cpuTime()-cpu0, stealTime()-steal0
		jobs = append(jobs, job)
	}
	// Time the hypervisor gave this machine's CPUs to other guests
	// measures the neighbours, not the program: the rates and latencies
	// leave it out (the report keeps the raw wall times beside it).
	var stolen time.Duration
	for _, j := range jobs {
		stolen += j.steal
	}
	wall := active()
	runtime.ReadMemStats(&after)
	var rss syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &rss)
	if err := sampleSetups(true); err != nil {
		h.close()
		return nil, err
	}

	// Read what the jobs left on disk, outside the window.
	for _, j := range jobs {
		if err := loadJob(j); err != nil {
			h.close()
			return nil, fmt.Errorf("job seed %d: %w", j.seed, err)
		}
	}

	m := map[string]float64{}
	var cells, failedCells, missing int
	var lat, first, idle []time.Duration
	var latTraced, latPlain []time.Duration
	for _, j := range jobs {
		cells += len(j.cells)
		failedCells += j.failed
		if j.streamRows < len(j.cells) {
			missing += len(j.cells) - j.streamRows
		}
		lat = append(lat, j.latency-j.steal)
		rep.JobWallS = append(rep.JobWallS, j.latency.Seconds())
		rep.JobStealS = append(rep.JobStealS, j.steal.Seconds())
		rep.JobCPUS = append(rep.JobCPUS, j.cpu.Seconds())
		first = append(first, j.firstResult)
		idle = append(idle, j.idleWait)
		rep.JobSeeds = append(rep.JobSeeds, j.seed)
		// Tracing cannot shorten or lengthen the workers' idle sleep
		// before the first lease, so the overhead compares the rest.
		if j.traced {
			latTraced = append(latTraced, j.latency-j.steal-j.idleWait)
		} else {
			latPlain = append(latPlain, j.latency-j.steal-j.idleWait)
		}
	}
	rep.Jobs, rep.Cells, rep.WindowS, rep.StealS = len(jobs), cells, wall.Seconds(), stolen.Seconds()
	rpcAttempted, rpcFailed := h.rpcs()
	events := h.failureEvents()
	if rc.trace {
		h.layers(m)
		records, bytes, err := countJournals(h.journalRoot())
		if err != nil {
			h.close()
			return nil, err
		}
		m["ckpt.records_per_cell"] = ratio(float64(records), float64(cells))
		m["ckpt.bytes_per_cell"] = ratio(float64(bytes), float64(cells))
		m["agg.stream_rows_missing"] = float64(missing)
		if rc.w.service {
			m["sweepd.idle_wait_ms_p50"] = median(millis(idle))
		}
	}
	if err := h.close(); err != nil {
		return nil, err
	}

	// Correctness: every job's durable digests against cells recomputed
	// by core.Run after the window.
	correct := true
	var tasks int64
	for _, j := range jobs {
		if msg := verifyJob(j, rc.workers); msg != "" {
			correct = false
			rep.Mismatch = msg
			break
		}
		tasks += j.tasks
	}
	out.result.Correct = correct
	out.result.Attempted = int64(cells) + rpcAttempted
	rep.Failures = failureCounts{Cells: failedCells, StreamRowsMissing: missing, RPCs: rpcFailed, Events: events}
	// failed counts the operations the run drove that failed: cells,
	// RPCs and the failures the system reported.  Rollups missing from
	// stream.jsonl are an output the program lost after every operation
	// succeeded — nondeterministically, to the exporter's and sweepd's
	// job-sealing races — so they count in error_frac and the report,
	// and a run that lost any says so on stderr.
	out.result.Failed = int64(failedCells) + rpcFailed + events
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "perfbench %s: %d rollup(s) missing from stream.jsonl\n", rc.w.name, missing)
	}
	if !correct {
		out.result.Metrics = map[string]metric{}
		return out, nil
	}

	latS := seconds(lat)
	rep.JobLatencyS, rep.FirstResultS, rep.SetupS = latS, seconds(first), seconds(setups)
	if rc.w.service {
		rep.IdleWaitS = seconds(idle)
	}
	tailV, tailPct := tail(latS)
	rep.TailPct, rep.TailSamples = tailPct, len(lat)
	if wall < qcMinWindow {
		for _, n := range []string{"cells_per_s", "sim_tasks_per_s"} {
			rep.QC = append(rep.QC, qcFlag{Metric: n, Flag: "QC_CRITICAL_TOO_SHORT", WindowS: wall.Seconds()})
		}
	}

	if !rc.trace {
		own := (wall - stolen).Seconds()
		m["setup_s"] = median(seconds(setups))
		m["cells_per_s"] = float64(cells) / own
		m["sim_tasks_per_s"] = float64(tasks) / own
		m["job_latency_p50_s"] = median(latS)
		m["job_latency_tail_s"] = tailV
		m["peak_rss_mb"] = float64(rss.Maxrss) / 1024 // Linux reports KiB
		m["alloc_bytes_per_cell"] = float64(after.TotalAlloc-before.TotalAlloc-pausedAlloc) / float64(cells)
	} else {
		m["error_frac"] = ratio(float64(out.result.Failed+int64(missing)), float64(out.result.Attempted))
		m["first_result_s"] = median(seconds(first))
		rep.TracedJobs, rep.UntracedJobs = len(latTraced), len(latPlain)
		if len(latTraced) > 0 && len(latPlain) > 0 {
			m["trace.overhead_frac"] = median(seconds(latTraced))/median(seconds(latPlain)) - 1
		}
		lm, qc, mismatch, err := redrive(jobs[0], filepath.Join(rc.dir, "redrive"), rc.redrive)
		if err != nil {
			return nil, fmt.Errorf("traced re-drive: %w", err)
		}
		if mismatch != "" {
			out.result.Correct = false
			rep.Mismatch = mismatch
			out.result.Metrics = map[string]metric{}
			return out, nil
		}
		for k, v := range lm {
			m[k] = v
		}
		rep.QC = append(rep.QC, qc...)
		for _, d := range rc.metrics {
			if _, ok := m[d.Name]; !ok {
				m[d.Name] = 0
				rep.NotApplicable = append(rep.NotApplicable, d.Name)
			}
		}
	}

	out.result.Metrics = make(map[string]metric, len(rc.metrics))
	for _, d := range rc.metrics {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.result.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// verifyJob checks that the job made a digest durable for every cell
// and recomputes j.verify of its cells (every cell when 0), chosen by
// the job's seed, with core.Run — outside any pool, journal or service
// — comparing digests.  When it recomputes every cell it also counts
// the job's simulated tasks.  It returns "" when all match.
func verifyJob(j *jobOutcome, workers int) string {
	if len(j.digests) != len(j.cells) {
		return fmt.Sprintf("job seed %d: %d digest(s) for %d cell(s)", j.seed, len(j.digests), len(j.cells))
	}
	check := j.cells
	if j.verify > 0 && j.verify < len(check) {
		check = make([]core.Config, j.verify)
		for i, p := range rand.New(rand.NewSource(j.seed)).Perm(len(j.cells))[:j.verify] {
			check[i] = j.cells[p]
		}
	}
	results := make([]*core.Result, len(check))
	errs := make([]error, len(check))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(check); i = int(next.Add(1) - 1) {
				results[i], errs[i] = core.Run(check[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Sprintf("job seed %d: reference run: %v", j.seed, err)
	}
	ref, tasks, err := digestAll(check, results)
	if err != nil {
		return fmt.Sprintf("job seed %d: reference digest: %v", j.seed, err)
	}
	if len(check) == len(j.cells) {
		j.tasks = tasks
	}
	for _, cfg := range check {
		key := cfg.CheckpointKey()
		if got, want := j.digests[key], ref[key]; got != want || want == "" {
			return fmt.Sprintf("job seed %d: cell %s digest %.12s, reference %.12s", j.seed, key, got, want)
		}
	}
	return ""
}

// loadJob reads the job's digests and counts its stream.jsonl rows.
func loadJob(j *jobOutcome) error {
	var err error
	if j.digestsFile != "" {
		b, err := os.ReadFile(j.digestsFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &j.digests); err != nil {
			return fmt.Errorf("%s: %w", j.digestsFile, err)
		}
	} else if j.digests, j.tasks, err = journalDigests(j.journalDir, j.cells); err != nil {
		return err
	}
	j.streamRows, err = streamRows(j.streamFile)
	return err
}

// flushTree fsyncs every regular file under root.
func flushTree(root string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// setupChildEnv makes a process a set-up child when set (see
// setupChild); its value is "WORKLOAD WORKERS DIR".
const setupChildEnv = "PERFBENCH_SETUP_CHILD"

// timeSetup times one set-up as a user meets it: from starting a fresh
// process of this program until that process has the workload's system
// set up in dir and says so, so code loading and package initialisation
// count too.  The child then tears the system down and exits.
func timeSetup(rc runConfig, dir string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %s", setupChildEnv, rc.w.name, rc.workers, dir))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	werr := cmd.Wait()
	if rerr != nil || line != "ready\n" || werr != nil {
		return 0, fmt.Errorf("set-up process: %q, %v, %v: %s", line, rerr, werr, stderr.String())
	}
	return d, nil
}

// setupChild runs the process as a set-up child when setupChildEnv is
// set: it sets the named workload's system up, prints "ready", tears
// the system down and reports whether all went well.  It returns false
// in a normal run.
func setupChild() (bool, error) {
	v, ok := os.LookupEnv(setupChildEnv)
	if !ok {
		return false, nil
	}
	f := strings.SplitN(v, " ", 3)
	if len(f) != 3 {
		return true, fmt.Errorf("%s=%q: want WORKLOAD WORKERS DIR", setupChildEnv, v)
	}
	w, ok := lookupWorkload(f[0])
	workers, err := strconv.Atoi(f[1])
	if !ok || err != nil {
		return true, fmt.Errorf("%s=%q: unknown workload or bad worker count", setupChildEnv, v)
	}
	h, err := setUp(runConfig{w: w, workers: workers}, f[2])
	if err != nil {
		return true, err
	}
	fmt.Println("ready")
	return true, h.close()
}

// setUp builds the system a workload runs on.
func setUp(rc runConfig, dir string) (harness, error) {
	if rc.w.service {
		return newService(rc, dir)
	}
	return newInproc(rc, dir)
}

// digestAll maps each cell's CheckpointKey to its result's digest and
// counts the results' simulated tasks.
func digestAll(cells []core.Config, results []*core.Result) (map[string]string, int64, error) {
	out := make(map[string]string, len(cells))
	var tasks int64
	for i, cfg := range cells {
		d, err := benchcheck.Digest(cfg, results[i])
		if err != nil {
			return nil, 0, err
		}
		out[cfg.CheckpointKey()] = d
		tasks += int64(results[i].Stats.TotalTasks)
	}
	return out, tasks, nil
}

// countJournals counts the records and bytes of every journal file
// under root; each record is one fsynced commit.
func countJournals(root string) (records, bytes int64, err error) {
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !isJournal(info.Name()) {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		records += int64(strings.Count(string(b), "\n"))
		bytes += int64(len(b))
		return nil
	})
	return records, bytes, err
}

// gitDescribe names the build when the benchmark runs in a git
// checkout; exported source trees report "unknown".
func gitDescribe() string {
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--tags")
	cmd.Env = append(os.Environ(), "GIT_DIR=.git", "GIT_WORK_TREE=.")
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// isJournal matches the checkpoint journal files ckpt writes
// (journal.jsonl and the per-writer journal-<writer>.jsonl).
func isJournal(name string) bool {
	return strings.HasPrefix(name, "journal") && strings.HasSuffix(name, ".jsonl")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the steal time /proc/stat reports so far, averaged over
// the CPUs: the time a CPU of this machine was ready to run but the
// hypervisor ran another guest.  It is 0 where it is not reported.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var ticks, cpus int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		if f[0] == "cpu" {
			ticks, _ = strconv.ParseInt(f[8], 10, 64)
		} else {
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(ticks) * (time.Second / 100) / time.Duration(cpus) // USER_HZ ticks
}
