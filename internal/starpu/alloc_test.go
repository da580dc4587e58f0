package starpu

import (
	"fmt"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/units"
)

// fixedClassMachine overrides testMachine's WorkerClass (which renders
// a fresh string per call) with preinterned class strings, matching the
// platform package's cached classes.  The steady-state allocation
// contract below only holds against a machine that — like the real
// one — does not allocate per class query.
type fixedClassMachine struct {
	*testMachine
	classes []string
}

func (m *fixedClassMachine) WorkerClass(i int) string { return m.classes[i] }

// NodeCapacity bounds the GPU nodes (to 16 tiles), so admission runs
// against real nodeMemory state.
func (m *fixedClassMachine) NodeCapacity(n int) units.Bytes {
	if n == 0 {
		return 0
	}
	return 16 * tileBytes
}

// TestNoAllocsSteadyState pins the zero-allocation contract of the
// dmdas scoring kernel: with the performance model warm, scoring one
// ready task against every worker (estimate on both the cache-hit and
// the stale-generation path, per-node transfer memo, locality bytes —
// the body of dmSched.Push), admitting it on a bounded node (canFit
// plus a pin/unpin/touch round) and cycling the per-worker priority
// queue must not allocate.
func TestNoAllocsSteadyState(t *testing.T) {
	m := newTestMachine()
	fm := &fixedClassMachine{
		testMachine: m,
		classes:     []string{"cpu0@t", "cpu1@t", "cuda0@t", "cuda1@t"},
	}
	rt, err := New(fm, Config{Scheduler: "dmdas", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	handles := make([]*Handle, 8)
	for i := range handles {
		handles[i] = rt.Register(nil, 8, 64, 64)
	}
	for k := 0; k < 40; k++ {
		task := &Task{
			Codelet:  anyCodelet,
			Handles:  []*Handle{handles[k%8], handles[(k+1)%8]},
			Modes:    []AccessMode{R, RW},
			Work:     1e9,
			Priority: k % 4,
		}
		if err := rt.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	// Scoring kernel: every worker's estimate for one warm task.
	task := rt.Tasks()[20]
	n := fm.NumWorkers()
	s := rt.sched.(*dmSched)
	allocs := testing.AllocsPerRun(500, func() {
		clear(s.xferSet)
		for i := 0; i < n; i++ {
			rt.estimate(task, i)
			s.nodeTransfer(task, rt.workers[i].Info.Node)
			rt.localBytes(task, i)
		}
	})
	if allocs != 0 {
		t.Errorf("warm dmdas scoring allocates %.2f times per task, want 0", allocs)
	}

	// A completion on the class makes the cached estimate stale: the
	// refresh goes back to the model, still without allocating.
	gpu := rt.workers[2]
	allocs = testing.AllocsPerRun(500, func() {
		rt.classGen[rt.workerClassID(gpu.ID)]++
		rt.estimate(task, gpu.ID)
	})
	if allocs != 0 {
		t.Errorf("stale-estimate refresh allocates %.2f times, want 0", allocs)
	}

	// Admission on a bounded node, and the pin/unpin/touch round a task
	// start and completion make on it.
	mem := rt.nodeMem(gpu.Info.Node)
	if mem == nil || mem.used == 0 {
		t.Fatal("warm run left no resident data on the bounded GPU node")
	}
	allocs = testing.AllocsPerRun(500, func() {
		if !rt.canFit(task, gpu.Info.Node) {
			t.Fatal("two-tile task does not fit a 16-tile node")
		}
		for _, h := range task.Handles {
			mem.pin(h)
		}
		for _, h := range task.Handles {
			mem.unpin(h)
			mem.touch(h)
		}
	})
	if allocs != 0 {
		t.Errorf("bounded-node admission allocates %.2f times, want 0", allocs)
	}

	// Ready-queue steady state: push-one/pop-one through the sorted
	// locality-aware pop the dmdas policy uses.
	q := taskQueue{sorted: true}
	q.push(task)
	if q.popBestLocal(rt, 2) == nil {
		t.Fatal("warmup pop returned nil")
	}
	allocs = testing.AllocsPerRun(500, func() {
		q.push(task)
		if q.popBestLocal(rt, 2) == nil {
			t.Fatal("steady-state pop returned nil")
		}
	})
	if allocs != 0 {
		t.Errorf("queue push/pop cycle allocates %.2f times per op, want 0", allocs)
	}
}

// TestCapRoundTripResurrectsEstimates pins the estimate cache's
// invalidation rules (DESIGN §14) across a cap change and back:
//   - a new class string interns a new class ID, so estimates switch to
//     the new power state's model entries;
//   - returning to the old cap re-interns the old ID (the string is
//     compared by content, not identity), and an entry computed under it
//     that the detour did not overwrite is valid again — it is served
//     from the cache, so a model sample recorded behind the runtime's
//     back stays invisible to it;
//   - an entry the detour overwrote is recomputed and sees that sample;
//   - a completion on the class (a generation bump) invalidates both.
func TestCapRoundTripResurrectsEstimates(t *testing.T) {
	fm := &fixedClassMachine{
		testMachine: newTestMachine(),
		classes:     []string{"cpu0@t", "cpu1@t", "cuda0@100W", "cuda1@t"},
	}
	rt, err := New(fm, Config{Scheduler: "dmdas", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Register(nil, 8, 64, 64)
	x := &Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e9}
	y := &Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 2e9}
	const gpu = 2
	// x and y share the model key (same codelet and footprint) but not
	// an estimate class (different work).
	keyAt := func(class string) perfmodel.Key {
		return perfmodel.Key{Codelet: gpuOnly.Name, Footprint: x.Footprint(), WorkerClass: class}
	}
	rt.Model().Record(keyAt("cuda0@100W"), 1)
	rt.Model().Record(keyAt("cuda0@200W"), 4)
	est := func(tk *Task) units.Seconds {
		d, calibrated := rt.estimate(tk, gpu)
		if !calibrated {
			t.Fatal("estimate fell back to the uncalibrated guess")
		}
		return d
	}

	if est(x) != 1 || est(y) != 1 {
		t.Fatal("estimates under 100W do not come from the 100W model entry")
	}
	idA := rt.workers[gpu].classID

	fm.classes[gpu] = "cuda0@200W"
	if got := est(x); got != 4 {
		t.Fatalf("after the cap change x estimates %v, want the 200W entry 4", got)
	}
	if rt.workers[gpu].classID == idA {
		t.Fatal("a new cap kept the old class ID")
	}

	// The 100W mean moves to 2 without the runtime's knowledge.
	rt.Model().Record(keyAt("cuda0@100W"), 3)
	fm.classes[gpu] = fmt.Sprintf("cuda0@%dW", 100) // same content, new string
	if got := est(y); got != 1 {
		t.Fatalf("after the cap round-trip y estimates %v, want the resurrected cached 1", got)
	}
	if rt.workers[gpu].classID != idA {
		t.Fatalf("cap round-trip interned class ID %d, want the old %d", rt.workers[gpu].classID, idA)
	}
	if got := est(x); got != 2 {
		t.Fatalf("after the cap round-trip x estimates %v, want the recomputed 2", got)
	}

	rt.classGen[idA]++
	if got := est(y); got != 2 {
		t.Fatalf("after a generation bump y estimates %v, want the recomputed 2", got)
	}
}
