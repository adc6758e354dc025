// Package sim provides a deterministic, activity-driven cycle simulation
// kernel. Components register with a Kernel and are ticked only on cycles
// where they have work; cycles with no active component are skipped by
// jumping the clock to the next scheduled event. This keeps long memory
// latencies (hundreds of idle cycles) free.
//
// Determinism: components are ticked in ascending registration order, flits
// carry arrival stamps so a flit moves at most one hop per cycle regardless
// of tick order, and all randomness flows from the seeded RNG in this
// package.
//
// Concurrency: a Kernel is single-threaded — one goroutine drives Step/Run
// and every component it ticks. Kernels hold no package-level state, so
// independent Kernels on different goroutines (see ParMap) share nothing.
//
// The kernel's inner loop is allocation-free in steady state: the event
// heap is a typed slice (no interface boxing), the scheduled-id lists are
// double-buffered across cycles, and deferred credit returns go through
// DeferIncr, which records a pointer instead of capturing a closure. The
// root-level allocation guards pin this.
package sim

import "sort"

// Component is anything the kernel can tick once per active cycle.
// Tick returns true if the component wants to be ticked on the next cycle
// as well (it still has queued work); returning false parks it until it is
// re-activated by an event or by another component.
type Component interface {
	Tick(now int64) bool
}

// event wakes a component at a fixed future cycle.
type event struct {
	at  int64
	seq int // tie-break for determinism
	id  int
}

// eventHeap is a binary min-heap ordered by (at, seq). It is maintained
// with inline sift operations rather than container/heap so pushes and
// pops move typed values, never boxing through `any`.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.less(l, small) {
			small = l
		}
		if r < n && s.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

func (h eventHeap) peek() (int64, bool) { // earliest event time
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Kernel drives registered components cycle by cycle.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now     int64
	comps   []Component
	pending []bool // comps scheduled for the next cycle
	next    []int  // ids scheduled for the next cycle (unsorted)
	spare   []int  // retired cycle list, reused as the following next
	events  eventHeap
	defers  []func()
	incrs   []*int // deferred counter increments (see DeferIncr)
	seq     int
	ticks   uint64
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Register adds a component and returns its id. Ids order ticking within a
// cycle; register in a stable order for reproducible runs.
func (k *Kernel) Register(c Component) int {
	id := len(k.comps)
	k.comps = append(k.comps, c)
	k.pending = append(k.pending, false)
	return id
}

// Now returns the current cycle.
func (k *Kernel) Now() int64 {
	return k.now
}

// Ticks returns the total number of component ticks executed, a measure of
// simulation work (not wall time).
func (k *Kernel) Ticks() uint64 {
	return k.ticks
}

// Activate schedules component id to tick on the next cycle. Safe to call
// from inside a Tick. Duplicate activations coalesce.
func (k *Kernel) Activate(id int) {
	if !k.pending[id] {
		k.pending[id] = true
		k.next = append(k.next, id)
	}
}

// WakeAt schedules component id to tick at cycle t. If t is not in the
// future the component is activated for the next cycle instead.
func (k *Kernel) WakeAt(t int64, id int) {
	if t <= k.now {
		k.Activate(id)
		return
	}
	k.seq++
	k.events.push(event{at: t, seq: k.seq, id: id})
}

// Defer runs f after all components have ticked in the current cycle.
// Used to commit state that must only become visible on the following
// cycle. Each call captures a closure; hot paths deferring a bare counter
// bump should use DeferIncr instead.
func (k *Kernel) Defer(f func()) {
	k.defers = append(k.defers, f)
}

// DeferIncr increments *ctr after all components have ticked in the
// current cycle — the allocation-free form of Defer for credit returns
// and similar end-of-cycle counter commits.
func (k *Kernel) DeferIncr(ctr *int) {
	k.incrs = append(k.incrs, ctr)
}

// Idle reports whether no component is scheduled and no event is pending.
func (k *Kernel) Idle() bool {
	return len(k.next) == 0 && len(k.events) == 0
}

// Step advances the clock to the next cycle with work and ticks every
// scheduled component in id order. It returns false when the kernel is
// idle (nothing will ever run again without external scheduling).
func (k *Kernel) Step() bool {
	if k.Idle() {
		return false
	}
	// Decide the next cycle: now+1 if anything is scheduled for it,
	// otherwise jump to the earliest event.
	target := k.now + 1
	if len(k.next) == 0 {
		if t, ok := k.events.peek(); ok {
			target = t
		}
	}
	k.now = target

	cur := k.next
	k.next = k.spare[:0]
	for _, id := range cur {
		k.pending[id] = false
	}
	// Pull in events due now.
	for len(k.events) > 0 && k.events[0].at <= k.now {
		ev := k.events.pop()
		if !k.pending[ev.id] {
			cur = append(cur, ev.id)
		}
	}
	sort.Ints(cur)
	prev := -1
	for _, id := range cur {
		if id == prev { // dedupe (event + activation overlap)
			continue
		}
		prev = id
		k.ticks++
		if k.comps[id].Tick(k.now) {
			k.Activate(id)
		}
	}
	k.spare = cur[:0]
	if len(k.incrs) > 0 {
		for _, ctr := range k.incrs {
			(*ctr)++
		}
		k.incrs = k.incrs[:0]
	}
	if len(k.defers) > 0 {
		for _, f := range k.defers {
			f()
		}
		k.defers = k.defers[:0]
	}
	return true
}

// Run steps until the kernel is idle or maxCycles cycles have elapsed.
// It returns the number of cycles simulated and whether the kernel went
// idle (false means the budget was exhausted first).
func (k *Kernel) Run(maxCycles int64) (cycles int64, idle bool) {
	start := k.now
	limit := start + maxCycles
	for k.now < limit {
		if !k.Step() {
			return k.now - start, true
		}
	}
	return k.now - start, false
}
