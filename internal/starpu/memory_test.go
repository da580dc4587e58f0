package starpu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/units"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// cappedMachine bounds the GPU nodes of testMachine to a small size so
// eviction triggers quickly.
type cappedMachine struct {
	*testMachine
	capacity units.Bytes
}

func (m *cappedMachine) NodeCapacity(n int) units.Bytes {
	if n == 0 {
		return 0
	}
	return m.capacity
}

// tileBytes is one 64x64 float64 handle.
const tileBytes = 64 * 64 * 8

func newCappedRT(t *testing.T, tiles int) (*Runtime, *cappedMachine) {
	t.Helper()
	m := &cappedMachine{testMachine: newTestMachine(), capacity: units.Bytes(tiles * tileBytes)}
	rt, err := New(m, Config{Scheduler: "eager"})
	if err != nil {
		t.Fatal(err)
	}
	return rt, m
}

func TestEvictionKeepsNodeUnderCapacity(t *testing.T) {
	rt, m := newCappedRT(t, 3) // room for 3 tiles per GPU
	// 12 read-only tiles streamed through one GPU-only codelet each.
	for i := 0; i < 12; i++ {
		h := rt.Register(nil, 8, 64, 64)
		if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8,
			Tag: fmt.Sprintf("t%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		if used := rt.NodeUsage(n); used > m.capacity {
			t.Errorf("node %d used %v > capacity %v", n, used, m.capacity)
		}
	}
	if rt.MemoryStats().Evictions == 0 {
		t.Error("streaming 12 tiles through 3-tile nodes caused no evictions")
	}
	// Read-only data still has its host copy: no writebacks needed.
	if rt.MemoryStats().WritebackBytes != 0 {
		t.Errorf("read-only streaming wrote back %v", rt.MemoryStats().WritebackBytes)
	}
}

func TestEvictionWritesBackLastCopy(t *testing.T) {
	rt, _ := newCappedRT(t, 2)
	// Write tiles on the GPU (sole owner), then stream unrelated reads
	// to force their eviction: last copies must be written back, never
	// lost.
	var written []*Handle
	for i := 0; i < 2; i++ {
		h := rt.Register(nil, 8, 64, 64)
		written = append(written, h)
		if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{RW}, Work: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		h := rt.Register(nil, 8, 64, 64)
		if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.MemoryStats().WritebackBytes == 0 {
		t.Error("no writebacks despite evicting sole GPU copies")
	}
	for i, h := range written {
		if len(h.ValidNodes()) == 0 {
			t.Errorf("written handle %d lost all copies", i)
		}
	}
}

func TestOversizedHandlePanics(t *testing.T) {
	rt, _ := newCappedRT(t, 1)
	h := rt.Register(nil, 8, 256, 256) // 512 KiB > 1-tile capacity
	if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized working set did not panic (CUDA OOM equivalent)")
		}
	}()
	rt.Run()
}

func TestPinsProtectRunningTasks(t *testing.T) {
	// Capacity of 2 tiles; tasks use 2 handles each.  The pipeline may
	// stage a second task while the first runs: the first task's tiles
	// must never be evicted mid-run.  Completion without panic and under
	// capacity is the invariant.
	rt, m := newCappedRT(t, 2)
	for i := 0; i < 6; i++ {
		a := rt.Register(nil, 8, 64, 64)
		b := rt.Register(nil, 8, 64, 64)
		if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{a, b}, Modes: []AccessMode{R, RW}, Work: 1e8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		if used := rt.NodeUsage(n); used > m.capacity {
			t.Errorf("node %d over capacity: %v", n, used)
		}
	}
}

func TestUnboundedMachineHasNoMemoryTracking(t *testing.T) {
	rt, _ := newRT(t, "eager") // plain testMachine: no CapacityModel
	h := rt.Register(nil, 8, 4096, 4096)
	if err := rt.Submit(&Task{Codelet: gpuOnly, Handles: []*Handle{h}, Modes: []AccessMode{R}, Work: 1e8}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.MemoryStats().Evictions != 0 || rt.NodeUsage(1) != 0 {
		t.Error("unbounded machine tracked memory")
	}
}

// TestEvictionStressNeverLosesData: random mixed R/RW streams through
// tightly bounded nodes must terminate with every handle still valid
// somewhere and capacity respected throughout.
func TestEvictionStressNeverLosesData(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		m := &cappedMachine{testMachine: newTestMachine(), capacity: units.Bytes(4 * tileBytes)}
		rt, err := New(m, Config{Scheduler: "ws", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := newSeededRand(seed)
		handles := make([]*Handle, 16)
		for i := range handles {
			handles[i] = rt.Register(nil, 8, 64, 64)
		}
		for i := 0; i < 120; i++ {
			h := handles[rng.Intn(len(handles))]
			mode := []AccessMode{R, RW, W}[rng.Intn(3)]
			if err := rt.Submit(&Task{Codelet: anyCodelet, Handles: []*Handle{h}, Modes: []AccessMode{mode}, Work: 1e7}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, h := range handles {
			if len(h.ValidNodes()) == 0 {
				t.Fatalf("seed %d: handle %d lost all copies", seed, i)
			}
		}
		for n := 1; n <= 2; n++ {
			if rt.NodeUsage(n) > m.capacity {
				t.Fatalf("seed %d: node %d over capacity", seed, n)
			}
		}
	}
}

// refMemory is the brute-force reference for nodeMemory: an ordered
// resident list (front = least recent) and a pin-count map, with every
// derived quantity recomputed by walking the list.
type refMemory struct {
	lru  []*Handle
	pins map[*Handle]int
}

func (r *refMemory) index(h *Handle) int {
	for i, x := range r.lru {
		if x == h {
			return i
		}
	}
	return -1
}

func (r *refMemory) touch(h *Handle) {
	r.drop(h)
	r.lru = append(r.lru, h)
}

func (r *refMemory) drop(h *Handle) {
	if i := r.index(h); i >= 0 {
		r.lru = append(r.lru[:i], r.lru[i+1:]...)
	}
}

func (r *refMemory) unpin(h *Handle) {
	if r.pins[h] > 0 {
		r.pins[h]--
	}
}

func (r *refMemory) used() units.Bytes {
	var b units.Bytes
	for _, h := range r.lru {
		b += h.bytes
	}
	return b
}

// evictable sums resident, unpinned bytes outside skip.
func (r *refMemory) evictable(skip []*Handle) units.Bytes {
	var b units.Bytes
	for _, h := range r.lru {
		if r.pins[h] == 0 && !containsHandle(skip, h) {
			b += h.bytes
		}
	}
	return b
}

func (r *refMemory) victim() *Handle {
	for _, h := range r.lru {
		if r.pins[h] == 0 {
			return h
		}
	}
	return nil
}

// canFit is the admission rule spelled out by an LRU walk.
func (r *refMemory) canFit(t *Task, capacity units.Bytes) bool {
	var needed units.Bytes
	for i, h := range t.Handles {
		if !containsHandle(t.Handles[:i], h) && r.index(h) < 0 {
			needed += h.bytes
		}
	}
	return needed <= capacity-r.used()+r.evictable(t.Handles)
}

// TestNodeMemoryMatchesLRUWalk drives a bounded node through seeded
// random sequences of touch, drop, pin, unpin and dropInvalid — with
// handles pinned before they are resident, dropped while pinned and
// touched again while pinned — and checks after every step that the
// running evictable count, canFit (on working sets that repeat
// handles), the victim and the whole LRU order agree with a
// brute-force walk.
func TestNodeMemoryMatchesLRUWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rt, m := newCappedRT(t, 6)
		mem := rt.memory[1]
		rng := newSeededRand(seed)
		handles := make([]*Handle, 12)
		for i := range handles {
			handles[i] = rt.Register(nil, 8, 64, 64*(1+rng.Intn(3)))
		}
		ref := &refMemory{pins: make(map[*Handle]int)}
		for step := 0; step < 400; step++ {
			h := handles[rng.Intn(len(handles))]
			var op string
			switch rng.Intn(6) {
			case 0, 1:
				op = "touch"
				mem.touch(h)
				ref.touch(h)
			case 2:
				op = "drop"
				mem.drop(h)
				ref.drop(h)
			case 3:
				op = "dropInvalid"
				rt.dropInvalid(h, 1)
				ref.drop(h)
			case 4:
				op = "pin"
				mem.pin(h)
				ref.pins[h]++
			case 5:
				op = "unpin"
				mem.unpin(h)
				ref.unpin(h)
			}
			where := fmt.Sprintf("seed %d step %d (%s handle %d)", seed, step, op, h.id)

			if mem.used != ref.used() {
				t.Fatalf("%s: used %v, walk says %v", where, mem.used, ref.used())
			}
			if want := ref.evictable(nil); mem.evictable != want {
				t.Fatalf("%s: evictable %v, walk says %v", where, mem.evictable, want)
			}
			if got, want := mem.victim(), ref.victim(); got != want {
				t.Fatalf("%s: victim %v, walk says %v", where, got, want)
			}
			var order []*Handle
			for id := mem.head; id >= 0; id = mem.slots[id].next {
				order = append(order, mem.slots[id].h)
			}
			var back []*Handle
			for id := mem.tail; id >= 0; id = mem.slots[id].prev {
				back = append(back, mem.slots[id].h)
			}
			if fmt.Sprint(order) != fmt.Sprint(ref.lru) || len(back) != len(order) {
				t.Fatalf("%s: LRU order %v (%d linked backwards), walk says %v", where, order, len(back), ref.lru)
			}
			for i := range back {
				if back[i] != order[len(order)-1-i] {
					t.Fatalf("%s: backward links disagree with forward links", where)
				}
			}

			// A working set of 1–4 handles drawn from a few, so the
			// same handle often appears twice in one task.
			ws := make([]*Handle, 1+rng.Intn(4))
			for i := range ws {
				ws[i] = handles[rng.Intn(4)]
			}
			task := &Task{Handles: ws}
			if got, want := rt.canFit(task, 1), ref.canFit(task, m.capacity); got != want {
				t.Fatalf("%s: canFit(%v) = %v, walk says %v", where, ws, got, want)
			}
		}
	}
}
