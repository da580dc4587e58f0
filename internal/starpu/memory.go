package starpu

import (
	"fmt"

	"repro/internal/units"
)

// CapacityModel is an optional Machine capability: bounded memory per
// node.  Nodes without a bound (the host) report 0.
type CapacityModel interface {
	// NodeCapacity reports node n's memory size in bytes (0 = unbounded).
	NodeCapacity(n int) units.Bytes
}

// nodeMemory tracks one bounded memory node: resident handles in LRU
// order, pin counts for handles used by in-flight tasks, the used byte
// count, and the evictable byte count.
//
// Per-handle state lives in slots indexed by Handle.id (grown on first
// use of an id), and the LRU list is intrusive: each slot links to its
// neighbours by id.  Admission (canFit) runs on every pop and every
// blocked retry, so it must not walk the resident set or hash handle
// pointers; the running evictable count makes it O(task handles).
type nodeMemory struct {
	node     int
	capacity units.Bytes
	used     units.Bytes
	// evictable counts the bytes of handles that are resident and
	// unpinned — what eviction could free right now.  touch, drop, pin
	// and unpin keep it current.  Handle sizes are whole byte counts far
	// below 2^53, so the float sums are exact in any order.
	evictable units.Bytes
	slots     []memSlot
	// head and tail are the LRU ends (head = least recent), -1 when no
	// handle is resident.
	head, tail int32
}

// memSlot is one handle's state on a node.
type memSlot struct {
	h          *Handle // non-nil while resident
	prev, next int32   // LRU neighbours (valid while resident; -1 = none)
	pins       int32
}

func newNodeMemory(node int, capacity units.Bytes) *nodeMemory {
	return &nodeMemory{node: node, capacity: capacity, head: -1, tail: -1}
}

// slot returns h's slot, growing the table to cover h.id.
func (m *nodeMemory) slot(h *Handle) *memSlot {
	if h.id >= len(m.slots) {
		m.slots = append(m.slots, make([]memSlot, h.id+1-len(m.slots))...)
	}
	return &m.slots[h.id]
}

// resident reports whether h is accounted on the node.
func (m *nodeMemory) resident(h *Handle) bool {
	return h.id < len(m.slots) && m.slots[h.id].h != nil
}

// pinned reports whether a running task holds h.
func (m *nodeMemory) pinned(h *Handle) bool {
	return h.id < len(m.slots) && m.slots[h.id].pins > 0
}

// touch marks h resident and most-recently used, accounting its bytes on
// first residency.
func (m *nodeMemory) touch(h *Handle) {
	s := m.slot(h)
	if s.h != nil {
		m.unlink(int32(h.id))
	} else {
		s.h = h
		m.used += h.bytes
		if s.pins == 0 {
			m.evictable += h.bytes
		}
	}
	m.pushBack(int32(h.id))
}

// drop removes h from the node's accounting.
func (m *nodeMemory) drop(h *Handle) {
	if !m.resident(h) {
		return
	}
	s := &m.slots[h.id]
	m.unlink(int32(h.id))
	s.h = nil
	m.used -= h.bytes
	if s.pins == 0 {
		m.evictable -= h.bytes
	}
}

// pin prevents h's eviction while a task uses it.
func (m *nodeMemory) pin(h *Handle) {
	s := m.slot(h)
	s.pins++
	if s.pins == 1 && s.h != nil {
		m.evictable -= h.bytes
	}
}

// unpin releases one pin; unpinning an unpinned handle is a no-op.
func (m *nodeMemory) unpin(h *Handle) {
	if !m.pinned(h) {
		return
	}
	s := &m.slots[h.id]
	s.pins--
	if s.pins == 0 && s.h != nil {
		m.evictable += h.bytes
	}
}

// victim picks the least-recently-used unpinned resident handle, or nil.
func (m *nodeMemory) victim() *Handle {
	for id := m.head; id >= 0; id = m.slots[id].next {
		if s := &m.slots[id]; s.pins == 0 {
			return s.h
		}
	}
	return nil
}

// unlink detaches a resident slot from the LRU list.
func (m *nodeMemory) unlink(id int32) {
	s := &m.slots[id]
	if s.prev >= 0 {
		m.slots[s.prev].next = s.next
	} else {
		m.head = s.next
	}
	if s.next >= 0 {
		m.slots[s.next].prev = s.prev
	} else {
		m.tail = s.prev
	}
}

// pushBack appends a slot at the most-recent end of the LRU list.
func (m *nodeMemory) pushBack(id int32) {
	s := &m.slots[id]
	s.prev, s.next = m.tail, -1
	if m.tail >= 0 {
		m.slots[m.tail].next = id
	} else {
		m.head = id
	}
	m.tail = id
}

// MemoryStats summarises the eviction activity of one run.
type MemoryStats struct {
	// Evictions counts handles pushed out of a bounded node.
	Evictions int
	// WritebackBytes counts bytes flushed to the host because the
	// evicted copy was the last valid one.
	WritebackBytes units.Bytes
}

// initMemory builds the per-node trackers when the machine bounds them.
func (rt *Runtime) initMemory() {
	cm, ok := rt.machine.(CapacityModel)
	if !ok {
		return
	}
	for n := 0; n < rt.machine.NumNodes(); n++ {
		if c := cm.NodeCapacity(n); c > 0 {
			if rt.memory == nil {
				rt.memory = make([]*nodeMemory, rt.machine.NumNodes())
			}
			rt.memory[n] = newNodeMemory(n, c)
		}
	}
}

// nodeMem reports node's tracker, or nil when the node is unbounded.
func (rt *Runtime) nodeMem(node int) *nodeMemory {
	if node < len(rt.memory) {
		return rt.memory[node]
	}
	return nil
}

// ensureResident makes room for h on node (evicting LRU handles as
// needed) and accounts it resident.  It returns the virtual time when
// any eviction writebacks complete (start for the incoming transfer).
// Bounded-node overflow by a single working set larger than the device
// panics: the workload cannot run, matching a CUDA OOM.
func (rt *Runtime) ensureResident(h *Handle, node int, from units.Seconds) units.Seconds {
	mem := rt.nodeMem(node)
	if mem == nil {
		return from
	}
	if mem.resident(h) {
		mem.touch(h)
		return from
	}
	if h.bytes > mem.capacity {
		panic(fmt.Sprintf("starpu: handle of %v exceeds node %d capacity %v", h.bytes, node, mem.capacity))
	}
	ready := from
	for mem.used+h.bytes > mem.capacity {
		v := mem.victim()
		if v == nil {
			panic(fmt.Sprintf("starpu: node %d out of memory: %v used of %v, all pinned",
				node, mem.used, mem.capacity))
		}
		// If this node holds the last valid copy, write it back to the
		// host before dropping it.
		if v.valid.has(node) && v.valid.count() == 1 {
			var end units.Seconds
			if rt.cfg.DisableTransferModel {
				end = from
			} else {
				_, end = rt.machine.ReserveLink(node, 0, from, v.bytes)
			}
			if end > ready {
				ready = end
			}
			v.valid.set(0)
			rt.memStats.WritebackBytes += v.bytes
		}
		v.valid.clear(node)
		mem.drop(v)
		rt.memStats.Evictions++
	}
	mem.touch(h)
	return ready
}

// pinHandles pins a task's working set on its node for the task's
// lifetime.
func (rt *Runtime) pinHandles(t *Task, node int) {
	mem := rt.nodeMem(node)
	if mem == nil {
		return
	}
	for _, h := range t.Handles {
		mem.pin(h)
	}
}

// unpinHandles releases the pins at task completion.
func (rt *Runtime) unpinHandles(t *Task, node int) {
	mem := rt.nodeMem(node)
	if mem == nil {
		return
	}
	for _, h := range t.Handles {
		mem.unpin(h)
	}
}

// dropInvalid removes h from node accounting after a write elsewhere
// invalidated its copy.
func (rt *Runtime) dropInvalid(h *Handle, node int) {
	if mem := rt.nodeMem(node); mem != nil {
		mem.drop(h)
	}
}

// canFit reports whether t's working set can be staged on node right
// now: missing bytes must fit into free plus evictable (unpinned,
// not-in-this-task) resident bytes.  Unbounded nodes always fit.
func (rt *Runtime) canFit(t *Task, node int) bool {
	mem := rt.nodeMem(node)
	if mem == nil {
		return true
	}
	// The node-wide evictable count includes the task's own resident,
	// unpinned handles, which staging must keep; subtract them once each.
	// Working sets are a handful of handles, so the dedup scans the slice
	// instead of building a set.
	var needed, own units.Bytes
	for i, h := range t.Handles {
		if containsHandle(t.Handles[:i], h) {
			continue
		}
		switch {
		case !mem.resident(h):
			needed += h.bytes
		case !mem.pinned(h):
			own += h.bytes
		}
	}
	free := mem.capacity - mem.used
	return needed <= free+mem.evictable-own
}

// containsHandle reports whether h appears in hs (identity match).
func containsHandle(hs []*Handle, h *Handle) bool {
	for _, x := range hs {
		if x == h {
			return true
		}
	}
	return false
}

// assertCouldFit panics when t's deduplicated working set exceeds the
// node outright — the simulation equivalent of a CUDA out-of-memory.
func (rt *Runtime) assertCouldFit(t *Task, node int) {
	mem := rt.nodeMem(node)
	if mem == nil {
		return
	}
	var total units.Bytes
	for i, h := range t.Handles {
		if !containsHandle(t.Handles[:i], h) {
			total += h.bytes
		}
	}
	if total > mem.capacity {
		panic(fmt.Sprintf("starpu: task %q working set %v exceeds node %d capacity %v",
			t.Tag, total, node, mem.capacity))
	}
}

// MemoryStats reports the run's eviction activity.
func (rt *Runtime) MemoryStats() MemoryStats { return rt.memStats }

// NodeUsage reports the bytes resident on a bounded node (0 for
// unbounded nodes).
func (rt *Runtime) NodeUsage(node int) units.Bytes {
	if mem := rt.nodeMem(node); mem != nil {
		return mem.used
	}
	return 0
}
