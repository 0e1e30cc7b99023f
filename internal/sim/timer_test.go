package sim

import "testing"

// TestStaleStopIsNoOp pins the generation-stamp contract: once a timer
// fires, its pooled event may be recycled for unrelated work, and Stop
// through the old handle must not cancel the new event.
func TestStaleStopIsNoOp(t *testing.T) {
	e := New(1)
	var fired1, fired2 bool
	t1 := e.After(10, func() { fired1 = true })
	e.Run()
	if !fired1 {
		t.Fatal("first timer did not fire")
	}
	// The freed event is at the head of the pool: this reuses it.
	t2 := e.After(10, func() { fired2 = true })
	if t1.Stop() {
		t.Fatal("stale Stop reported success")
	}
	if !t2.Pending() {
		t.Fatal("stale Stop cancelled the recycled event")
	}
	e.Run()
	if !fired2 {
		t.Fatal("recycled event did not fire")
	}
	if t1.Pending() || t2.Pending() {
		t.Fatal("fired timers still pending")
	}
}

// TestStopAfterStopIsNoOp verifies double-Stop and Stop-then-reuse.
func TestStopAfterStopIsNoOp(t *testing.T) {
	e := New(1)
	tm := e.After(10, func() { t.Fatal("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("first Stop failed")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported success")
	}
	// Cancellation recycles immediately; the next schedule reuses the
	// event and the old handle must stay inert against it too.
	ok := false
	e.After(5, func() { ok = true })
	if tm.Stop() {
		t.Fatal("stale Stop after cancel reported success")
	}
	e.Run()
	if !ok {
		t.Fatal("reused event did not fire")
	}
}

// TestTimerStressSmallPool hammers schedule/fire/stop so every event
// struct is recycled many times, checking that exactly the un-stopped
// callbacks run, in non-decreasing time order, with Pending consistent.
func TestTimerStressSmallPool(t *testing.T) {
	e := New(42)
	rng := NewRand(7)
	var fired, stopped, scheduled int
	var last Time
	var timers []Timer
	var tick func()
	tick = func() {
		if e.Now() < last {
			t.Fatalf("time went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
		fired++
		if scheduled >= 5000 {
			return
		}
		// Schedule a small burst; randomly stop some older handles
		// (many of which are stale by now).
		for i := 0; i < 3; i++ {
			scheduled++
			d := Time(rng.Intn(2000))
			timers = append(timers, e.After(d, tick))
		}
		for i := 0; i < 2 && len(timers) > 0; i++ {
			j := rng.Intn(len(timers))
			if timers[j].Stop() {
				stopped++
				fired++ // account: this callback will never run
			}
			timers[j] = timers[len(timers)-1]
			timers = timers[:len(timers)-1]
		}
	}
	scheduled++
	e.After(0, tick)
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
	if fired != scheduled {
		t.Fatalf("fired+stopped = %d, scheduled = %d", fired, scheduled)
	}
	if stopped == 0 {
		t.Fatal("stress never exercised Stop on a live timer")
	}
}

// TestEngineOrderingAcrossScales schedules events from zero delay to
// past 2^33 ns in shuffled order and verifies global (at, seq) firing
// order.
func TestEngineOrderingAcrossScales(t *testing.T) {
	e := New(1)
	// Delays straddle each power of 256 up to 2^32, plus one past 2^33.
	delays := []Time{
		0, 1, 2, 255, 256, 257,
		65535, 65536, 70000,
		1 << 24, 1<<24 + 3,
		1 << 32, 1<<32 + 1, 1 << 33,
	}
	perm := NewRand(9).Perm(len(delays))
	type rec struct {
		at  Time
		idx int
	}
	var got []rec
	for i, pi := range perm {
		d := delays[pi]
		i := i
		e.At(d, func() { got = append(got, rec{e.Now(), i}) })
	}
	e.Run()
	if len(got) != len(delays) {
		t.Fatalf("fired %d of %d", len(got), len(delays))
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("out of time order at %d: %v < %v", i, got[i].at, got[i-1].at)
		}
		if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
			t.Fatalf("FIFO tie-break violated at %v", got[i].at)
		}
	}
}

// TestFarEventFiresOnTime checks that an event ~21 s ahead still fires
// at exactly its scheduled time while short-delay events keep running.
func TestFarEventFiresOnTime(t *testing.T) {
	e := New(1)
	const far = Time(5) << 32
	var at Time
	e.At(far, func() { at = e.Now() })
	// Keep the engine busy on the way there.
	n := 0
	var hop func()
	hop = func() {
		n++
		if n < 100 {
			e.After(1<<20, hop)
		}
	}
	e.After(0, hop)
	e.Run()
	if at != far {
		t.Fatalf("far event fired at %v, want %v", at, far)
	}
}

// TestStopLeavesNoDeadEntries: Stop removes the event from the queue at
// once, so heavy schedule-then-Stop churn (per-segment TCP retransmit
// timers) cannot grow the queue while a live event keeps ticking.
func TestStopLeavesNoDeadEntries(t *testing.T) {
	e := New(1)
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		e.After(1000, tick)
	}
	e.After(0, tick)
	for i := 0; i < 100_000; i++ {
		tm := e.After(Time(1)<<33+Time(i), func() { t.Fatal("stopped timer fired") })
		if i%100 == 0 {
			e.RunUntil(e.Now() + 1000)
		}
		if !tm.Stop() {
			t.Fatal("Stop on a live far-future timer failed")
		}
		if len(e.heap) != e.Pending() || e.Pending() != 1 {
			t.Fatalf("after %d stops: heap holds %d entries, %d pending; want only the ticking event", i+1, len(e.heap), e.Pending())
		}
	}
	if ticks == 0 {
		t.Fatal("the live event never ticked")
	}
}
