package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/benchcheck"
	"repro/internal/core"
)

// TestMain lets the test binary serve as the set-up child that
// timeSetup starts.
func TestMain(m *testing.M) {
	if child, err := setupChild(); child {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload to one small platform at scale 8, so the
// harness runs end to end in seconds.
func tiny(w workload) workload {
	w.platform, w.scale = "24-Intel-2-V100", 8
	return w
}

// TestWorkloadsTiny runs every workload, untraced and traced, on a tiny
// grid and checks that outputs verify, nothing fails and every metric
// the benchmark declares is reported.
func TestWorkloadsTiny(t *testing.T) {
	sets, err := loadMetrics(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := tiny(w), traced
			defs := sets.EndToEnd
			if traced {
				defs = sets.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				out, err := run(runConfig{w: w, seed: 7, window: 300 * time.Millisecond, trace: traced,
					dir: t.TempDir(), workers: 2, redrive: time.Millisecond, metrics: defs})
				if err != nil {
					t.Fatal(err)
				}
				r := out.result
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d mismatch=%q", r.Correct, r.Failed, r.Attempted, out.report.Mismatch)
				}
				if len(r.Metrics) != len(defs) {
					t.Fatalf("%d metrics reported, %d declared", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if out.report.Host.NProc < 1 || out.report.Host.GoVersion == "" {
					t.Errorf("host fingerprint incomplete: %+v", out.report.Host)
				}
			})
		}
	}
}

// TestVerifyJobCatchesMismatch checks that a wrong digest fails
// verification instead of passing as a number.
func TestVerifyJobCatchesMismatch(t *testing.T) {
	cells, err := core.GridCells(core.GridSpec{Rows: gridRows(tiny(workloads[0])), RootSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cells = cells[:2]
	job := &jobOutcome{seed: 3, cells: cells, digests: map[string]string{}}
	for _, c := range cells {
		res, err := core.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if job.digests[c.CheckpointKey()], err = benchcheck.Digest(c, res); err != nil {
			t.Fatal(err)
		}
	}
	if msg := verifyJob(job, 2); msg != "" {
		t.Fatalf("matching digests rejected: %s", msg)
	}
	job.digests[cells[1].CheckpointKey()] = "0000"
	if msg := verifyJob(job, 2); msg == "" {
		t.Fatal("a wrong digest passed verification")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := tail(xs)
	if p != 75 || v != quantile(xs, 0.75) {
		t.Fatalf("40 samples: tail p%v = %v, want p75", p, v)
	}
	if _, p := tail(xs[:12]); p != 50 {
		t.Fatalf("12 samples: tail at p%v, want the median", p)
	}
}
