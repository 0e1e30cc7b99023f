package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-broken events not FIFO at %d: %v", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New(1)
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
		e.After(0, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	for i := Time(1); i <= 100; i++ {
		e.At(i*10, func() { count++ })
	}
	e.RunUntil(500)
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
	if e.Now() != 500 {
		t.Fatalf("clock = %v, want 500", e.Now())
	}
	e.RunUntil(1000)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New(1)
	e.After(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestTimerStop(t *testing.T) {
	e := New(1)
	ran := false
	tm := e.After(10, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled timer still fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := New(1)
	tm := e.After(10, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestEngineStop(t *testing.T) {
	e := New(1)
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5 after Stop", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("count = %d, want 10 after resume", count)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		e := New(seed)
		rng := e.Rand()
		var trace []uint64
		var tick func()
		tick = func() {
			trace = append(trace, rng.Uint64())
			if len(trace) < 50 {
				e.After(Time(1+rng.Intn(100)), tick)
			}
		}
		e.After(1, tick)
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism violated at %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRandIntnBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("exp mean = %v, want ~1", mean)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(9)
	a := r.Fork()
	b := r.Fork()
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked generators produced identical first values")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2500, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := New(1)
	t1 := e.After(10, func() {})
	e.After(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	t1.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after cancel, want 1", e.Pending())
	}
}

// TestNextAtExact: NextAt reports exactly the next firing time —
// running to just before it fires nothing, running to it fires at
// least one event, and repeating the probe-and-advance loop reaches
// every event.
func TestNextAtExact(t *testing.T) {
	e := New(7)
	rng := NewRand(99)
	want := 0
	for i := 0; i < 200; i++ {
		// Delays from 0 to ~2^32 ns.
		d := Time(rng.Intn(1 << uint(4*rng.Intn(9))))
		e.After(d, func() { want-- })
		want++
	}
	for {
		next, ok := e.NextAt()
		if !ok {
			break
		}
		if next > e.Now() {
			fired := e.Fired()
			e.RunUntil(next - 1)
			if e.Fired() != fired {
				t.Fatalf("NextAt=%v overestimated: events fired before it", next)
			}
		}
		fired := e.Fired()
		e.RunUntil(next)
		if e.Fired() == fired {
			t.Fatalf("NextAt=%v underestimated: RunUntil(%v) fired nothing", next, next)
		}
	}
	if want != 0 {
		t.Fatalf("%d events unaccounted for", want)
	}
}

// refEvent is the reference model's record of one scheduled event.
type refEvent struct {
	at, schedAt Time
	seq         uint64
	pending     bool
	fired       bool
}

// refModel drives an Engine with random operations and checks every
// fire against a plain list of pending events: the event that fires
// must be the pending one with the least (at, schedAt, seq).
type refModel struct {
	t       *testing.T
	e       *Engine
	rng     *Rand
	seq     uint64 // mirrors the engine's schedule counter
	evs     []refEvent
	pending []int // ids of pending events, unordered
	timers  []refTimer
}

type refTimer struct {
	tm Timer
	id int
}

type refArg struct {
	m  *refModel
	id int
}

func refFire(v any) { a := v.(*refArg); a.m.fire(a.id) }

// delay draws a firing delay: zero, a tie with a pending event's time,
// or a short, medium, long or beyond-2^33 distance.
func (m *refModel) delay() Time {
	switch m.rng.Intn(6) {
	case 0:
		return 0
	case 1:
		if len(m.pending) > 0 {
			return m.evs[m.pending[m.rng.Intn(len(m.pending))]].at - m.e.Now()
		}
		return 0
	case 2:
		return Time(m.rng.Intn(300))
	case 3:
		return Time(m.rng.Intn(1 << 20))
	case 4:
		return Time(m.rng.Intn(1 << 34))
	default:
		return 1<<33 + Time(m.rng.Intn(1<<33))
	}
}

// schedule issues one At, AtArg or atPosted. atPosted gets a schedule
// time at or before now, often one a pending event already carries.
func (m *refModel) schedule() {
	now := m.e.Now()
	id := len(m.evs)
	ev := refEvent{at: now + m.delay(), schedAt: now, seq: m.seq, pending: true}
	m.seq++
	switch m.rng.Intn(3) {
	case 0:
		tm := m.e.At(ev.at, func() { m.fire(id) })
		m.timers = append(m.timers, refTimer{tm, id})
	case 1:
		tm := m.e.AtArg(ev.at, refFire, &refArg{m, id})
		m.timers = append(m.timers, refTimer{tm, id})
	default:
		if len(m.pending) > 0 && m.rng.Intn(2) == 0 {
			ev.schedAt = m.evs[m.pending[m.rng.Intn(len(m.pending))]].schedAt
		} else if back := Time(m.rng.Intn(1000)); back <= now {
			ev.schedAt = now - back
		}
		m.e.atPosted(ev.at, ev.schedAt, refFire, &refArg{m, id})
	}
	m.evs = append(m.evs, ev)
	m.pending = append(m.pending, id)
}

// stop calls Stop on a random handle, which may be live, fired,
// stopped or stale (its pooled event reused by a later schedule).
func (m *refModel) stop() {
	if len(m.timers) == 0 {
		return
	}
	rt := m.timers[m.rng.Intn(len(m.timers))]
	want := m.evs[rt.id].pending
	if rt.tm.Pending() != want {
		m.t.Fatalf("event %d: Timer.Pending() = %v, want %v", rt.id, !want, want)
	}
	if got := rt.tm.Stop(); got != want {
		m.t.Fatalf("event %d: Stop() = %v, want %v", rt.id, got, want)
	}
	if want {
		m.evs[rt.id].pending = false
		m.drop(rt.id)
	}
}

func (m *refModel) drop(id int) {
	for i, p := range m.pending {
		if p == id {
			m.pending[i] = m.pending[len(m.pending)-1]
			m.pending = m.pending[:len(m.pending)-1]
			return
		}
	}
}

// first returns the pending event that must fire next, or -1.
func (m *refModel) first() int {
	best := -1
	for _, id := range m.pending {
		if best < 0 {
			best = id
			continue
		}
		a, b := &m.evs[id], &m.evs[best]
		if a.at != b.at {
			if a.at < b.at {
				best = id
			}
		} else if a.schedAt != b.schedAt {
			if a.schedAt < b.schedAt {
				best = id
			}
		} else if a.seq < b.seq {
			best = id
		}
	}
	return best
}

func (m *refModel) fire(id int) {
	ev := &m.evs[id]
	switch {
	case ev.fired:
		m.t.Fatalf("event %d fired twice", id)
	case !ev.pending:
		m.t.Fatalf("stopped event %d fired", id)
	}
	if want := m.first(); want != id {
		w := m.evs[want]
		m.t.Fatalf("event %d (at %d, schedAt %d, seq %d) fired before event %d (at %d, schedAt %d, seq %d)",
			id, ev.at, ev.schedAt, ev.seq, want, w.at, w.schedAt, w.seq)
	}
	if m.e.Now() != ev.at {
		m.t.Fatalf("event %d fired at %v, scheduled for %v", id, m.e.Now(), ev.at)
	}
	ev.pending, ev.fired = false, true
	m.drop(id)
	// Callbacks schedule and stop too, some of it at the current time.
	if m.rng.Intn(3) == 0 {
		m.schedule()
	}
	if m.rng.Intn(8) == 0 {
		m.stop()
	}
}

// check compares Pending and NextAt with the model.
func (m *refModel) check() {
	if got := m.e.Pending(); got != len(m.pending) {
		m.t.Fatalf("Pending() = %d, model has %d", got, len(m.pending))
	}
	next, ok := m.e.NextAt()
	if first := m.first(); first < 0 {
		if ok {
			m.t.Fatalf("NextAt() = %v with nothing pending", next)
		}
	} else if want := m.evs[first].at; !ok || next != want {
		m.t.Fatalf("NextAt() = %v, %v; want %v, true", next, ok, want)
	}
}

// TestEngineMatchesReference drives the engine with seeded random
// schedules (ties, back-dated schedule times, delays past 2^33), Stops
// on live, fired and stale handles, and RunUntil at random deadlines,
// and checks every fire and every Pending count against a reference
// list ordered by (at, schedAt, seq).
func TestEngineMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		m := &refModel{t: t, e: New(seed), rng: NewRand(seed)}
		for step := 0; step < 4000; step++ {
			switch r := m.rng.Intn(8); {
			case r < 4:
				m.schedule()
			case r < 6:
				m.stop()
			default:
				deadline := m.e.Now()
				switch m.rng.Intn(4) {
				case 0:
					deadline += Time(m.rng.Intn(1 << 34))
				case 1:
					deadline += Time(m.rng.Intn(1 << 20))
				default:
					deadline += Time(m.rng.Intn(2000))
				}
				m.e.RunUntil(deadline)
				if m.e.Now() != deadline {
					t.Fatalf("RunUntil(%v) left the clock at %v", deadline, m.e.Now())
				}
				if f := m.first(); f >= 0 && m.evs[f].at <= deadline {
					t.Fatalf("RunUntil(%v) left event %d due at %v", deadline, f, m.evs[f].at)
				}
			}
			m.check()
		}
		m.e.Run()
		m.check()
		fired := 0
		for _, ev := range m.evs {
			if ev.fired {
				fired++
			}
		}
		if fired == 0 || fired == len(m.evs) {
			t.Fatalf("seed %d: %d of %d events fired; want some fired and some stopped", seed, fired, len(m.evs))
		}
	}
}
