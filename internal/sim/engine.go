package sim

import "fmt"

// The scheduler is one 4-ary min-heap of pooled events (DESIGN.md §2
// "Engine internals"). The simulation runs at a shallow queue depth
// (~10 pending events on the packet floods, ~1000 on the 64 KB flood),
// where one heap measured faster end to end than a hierarchical timing
// wheel (DESIGN.md §2 has the numbers).
//
// Events are pooled on a free list and recycled immediately after they
// fire or are cancelled. A Timer handle therefore carries a generation
// stamp: Stop on a handle whose event has been recycled (and possibly
// rescheduled for an unrelated purpose) is a safe no-op.

// event is a scheduled callback. Events fire in (at, schedAt, seq)
// order: schedAt is the clock when the event was scheduled, so ties at
// the same firing time resolve in FIFO scheduling order. For a serial
// engine schedAt is monotone in seq and the pair degenerates to plain
// seq order; a Cluster draining cross-shard messages inserts them with
// the sender's clock as schedAt, reproducing the serial engine's
// schedule-chronology tie-break across shard boundaries.
type event struct {
	at      Time
	schedAt Time
	seq     uint64
	gen     uint64 // bumped on every recycle; stale Timer handles mismatch
	eng     *Engine

	// Exactly one of fn / afn is set while scheduled. afn avoids a
	// closure allocation on hot paths: the argument rides in arg.
	fn  func()
	afn func(any)
	arg any

	idx  int    // position in the heap while scheduled
	next *event // free-list link while pooled
}

// before is the firing order.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	if ev.schedAt != o.schedAt {
		return ev.schedAt < o.schedAt
	}
	return ev.seq < o.seq
}

// Timer is a generation-stamped handle to a scheduled event. The zero
// Timer is valid and inert. Handles stay safe after their event fires:
// the pooled event's generation is bumped on recycle, so Stop and
// Pending on a stale handle are no-ops.
type Timer struct {
	ev  *event
	gen uint64
}

// Pending reports whether the timer is scheduled and not yet fired or
// stopped.
func (t Timer) Pending() bool { return t.ev != nil && t.ev.gen == t.gen }

// Stop cancels the timer. It reports whether the callback was prevented
// from running (false when it already fired, was already stopped, or the
// handle is stale).
func (t *Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return false
	}
	ev.eng.remove(ev.idx)
	ev.eng.recycle(ev)
	return true
}

// Engine is the discrete-event simulation core.
type Engine struct {
	now     Time
	seq     uint64
	rng     *Rand
	stopped bool
	fired   uint64
	budget  uint64 // max events to fire; 0 = unlimited
	shard   int    // logical-process index when owned by a Cluster

	heap []*event // 4-ary min-heap on (at, schedAt, seq)
	free *event   // recycled event free list, linked via next
}

// New returns an engine with its clock at zero, seeded with seed.
func New(seed uint64) *Engine { return &Engine{rng: NewRand(seed)} }

// NewShared returns an engine whose root RNG is the caller-supplied
// generator r, shared with other engines. A Cluster builds every
// logical process this way so that construction-time Fork() calls
// consume the single root stream in exactly the order the serial
// engine would — the foundation of shard-count byte-identity.
func NewShared(r *Rand) *Engine { return &Engine{rng: r} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetClock advances the clock to t without executing anything. It is
// the Cluster's barrier primitive: parked logical processes are moved
// to the window boundary so relative scheduling (After) from
// coordinator context uses correct absolute times. The caller must
// guarantee no pending event is earlier than t; calling with t <= now
// is a no-op.
func (e *Engine) SetClock(t Time) {
	if t > e.now {
		e.now = t
	}
}

// NextAt returns the firing time of the engine's next event, and
// whether any event is pending. O(1): it is the heap root's time.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}

// Shard returns the engine itself: a serial engine is its own (only)
// logical process, so hosts mapped to any shard index share it.
func (e *Engine) Shard(int) *Engine { return e }

// NumShards returns 1: the serial engine is a single logical process.
func (e *Engine) NumShards() int { return 1 }

// Rand returns the engine's root RNG. Components should Fork it.
func (e *Engine) Rand() *Rand { return e.rng }

// Fired returns the number of events executed so far (for diagnostics).
func (e *Engine) Fired() uint64 { return e.fired }

// BudgetExceeded is the panic value raised when an engine passes its
// event budget — the runaway-simulation backstop behind falconsim's
// -max-events flag. Callers recover it, report the diagnostic, and exit
// nonzero instead of spinning forever.
type BudgetExceeded struct {
	Limit uint64
	Now   Time
}

func (b *BudgetExceeded) Error() string {
	return fmt.Sprintf("sim: event budget exceeded: %d events fired, sim time %v", b.Limit, b.Now)
}

// SetEventBudget caps the number of events this engine may fire; firing
// past the cap panics with *BudgetExceeded. 0 removes the cap.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// Pending returns the number of scheduled, uncancelled events. O(1):
// cancelled events leave the heap at once, so it holds only these.
func (e *Engine) Pending() int { return len(e.heap) }

// schedule takes a pooled event, fills it and pushes it on the heap.
func (e *Engine) schedule(t, schedAt Time, fn func(), afn func(any), arg any) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.free
	if ev == nil {
		ev = &event{eng: e}
	} else {
		e.free = ev.next
		ev.next = nil
	}
	ev.at, ev.schedAt, ev.seq = t, schedAt, e.seq
	ev.fn, ev.afn, ev.arg = fn, afn, arg
	e.seq++
	e.heap = append(e.heap, nil)
	e.up(len(e.heap)-1, ev)
	return ev
}

// recycle returns an event that has left the heap to the pool,
// invalidating all outstanding Timer handles to it.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	ev.next = e.free
	e.free = ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it is always a simulation bug.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.schedule(t, e.now, fn, nil, nil)
	return Timer{ev: ev, gen: ev.gen}
}

// AtArg schedules fn(arg) at absolute time t. Unlike At it needs no
// closure: hot paths pass a package-level function and carry their state
// in arg, making the schedule allocation-free.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Timer {
	ev := e.schedule(t, e.now, nil, fn, arg)
	return Timer{ev: ev, gen: ev.gen}
}

// atPosted schedules fn(arg) at absolute time t with an explicit
// schedule-time tie-break key — the Cluster's barrier drain uses the
// sending shard's clock here, so a cross-shard delivery interleaves
// with the destination's same-nanosecond events exactly as it would
// have on a single serial engine.
func (e *Engine) atPosted(t, schedAt Time, fn func(any), arg any) {
	e.schedule(t, schedAt, nil, fn, arg)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AfterArg schedules fn(arg) d nanoseconds from now, without a closure.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now+d, fn, arg)
}

// Stop halts the run loop after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		e.fireOne()
	}
}

// RunUntil executes events with at <= deadline, then sets the clock to
// deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped && e.heap[0].at <= deadline {
		e.fireOne()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// fireOne pops the heap root and runs it. The event is recycled before
// the callback executes, so callbacks can schedule new work that reuses
// it, and stale Stop calls are already no-ops.
func (e *Engine) fireOne() {
	ev := e.heap[0]
	e.remove(0)
	if ev.at > e.now {
		e.now = ev.at
	}
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	e.recycle(ev)
	e.fired++
	if e.budget > 0 && e.fired > e.budget {
		panic(&BudgetExceeded{Limit: e.budget, Now: e.now})
	}
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// remove takes the event at heap index i out of the heap, refilling the
// hole with the last element.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(e.heap[(i-1)/4]) {
		e.up(i, last)
	} else {
		e.down(i, last)
	}
}

// up places ev at the hole i, moving it toward the root past every
// ancestor it fires before.
func (e *Engine) up(i int, ev *event) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = i
		i = p
	}
	h[i] = ev
	ev.idx = i
}

// down places ev at the hole i, moving it toward the leaves past every
// child that fires before it.
func (e *Engine) down(i int, ev *event) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(ev) {
			break
		}
		h[i] = h[m]
		h[i].idx = i
		i = m
	}
	h[i] = ev
	ev.idx = i
}
