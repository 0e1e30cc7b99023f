package sim

import (
	"fmt"
	"testing"
)

// depthLane is one independent event stream of BenchmarkEngineDepth:
// a tick that reschedules itself, and optionally a timeout that each
// tick re-arms before it can fire (TCP's RTO churn).
type depthLane struct {
	e     *Engine
	delay Time
	rto   Timer
	churn bool
	left  *int
}

func depthTick(v any) {
	l := v.(*depthLane)
	if *l.left <= 0 {
		return
	}
	*l.left--
	l.e.AfterArg(l.delay, depthTick, l)
	if l.churn {
		l.rto.Stop()
		l.rto = l.e.AfterArg(4*l.delay, depthTimeout, l)
	}
}

func depthTimeout(any) {}

// BenchmarkEngineDepth times steady schedule-and-fire with depth events
// pending, at the depths the benchmark workloads run (≈10 on the UDP
// and TCP floods, ≈1000 on the 64 KB flood); one op is one fired
// tick. Lane delays are spread over ~1 µs so events interleave. The
// "stop-half" variants also re-arm a timeout per tick, so half of all
// scheduled events are stopped before they fire.
func BenchmarkEngineDepth(b *testing.B) {
	for _, depth := range []int{10, 1000} {
		for _, churn := range []bool{false, true} {
			name := fmt.Sprintf("depth=%d", depth)
			if churn {
				name += "/stop-half"
			}
			b.Run(name, func(b *testing.B) {
				e := New(1)
				left := b.N
				lanes := make([]depthLane, depth)
				for i := range lanes {
					lanes[i] = depthLane{e: e, delay: Time(100 + i*397%1009), churn: churn, left: &left}
					e.AfterArg(lanes[i].delay, depthTick, &lanes[i])
				}
				b.ReportAllocs()
				b.ResetTimer()
				e.Run()
				if left > 0 {
					b.Fatal("event loop stalled")
				}
			})
		}
	}
}
