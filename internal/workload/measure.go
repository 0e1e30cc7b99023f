package workload

import (
	"falcon/internal/overlay"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/stats"
)

// Result is one measured window.
type Result struct {
	Window    sim.Time
	Delivered uint64
	PPS       float64
	Latency   stats.Summary
	// LatencyHist is the merged per-socket latency histogram behind
	// Latency, kept so callers can merge windows into aggregate tail
	// curves (p99.9 needs the buckets, not the summary).
	LatencyHist *stats.Histogram

	// Drop accounting on the server side.
	NICDrops, BacklogDrops, SocketDrops uint64
	// Drops is every host-datapath drop in the window, per reason,
	// summed over the testbed's hosts (socket drops are not in it).
	Drops overlay.DropCensus

	// CoreBusy is per-core utilization [0,1] on the server during the
	// window; CoreSoftirq/CoreTask the context shares.
	CoreBusy, CoreSoftirq, CoreTask []float64

	// IRQ counts on the server during the window.
	HardIRQs, NetRX, RES uint64
}

// GbpsFor converts the packet rate to goodput for a payload size.
func (r Result) GbpsFor(payloadBytes int) float64 {
	return r.PPS * float64(payloadBytes) * 8 / 1e9
}

// MeasureWindow advances to `warmup`, resets all measurement state, runs
// one window, and collects server-side metrics, the window's drop
// census over every host, and the union of the given sockets' delivery
// stats.
func MeasureWindow(tb *Testbed, socks []*socket.Socket, warmup, window sim.Time) Result {
	res := Result{Window: window}
	tb.Run(warmup)
	tb.Server.ResetMeasurement()
	tb.Client.ResetMeasurement()
	if tb.Spare != nil {
		tb.Spare.ResetMeasurement()
	}
	for _, sk := range socks {
		sk.ResetMeasurement()
	}
	// Link counters survive the reset, so the census is a delta.
	var before overlay.DropCensus
	for _, h := range tb.Hosts() {
		before.Add(h)
	}
	tb.Run(warmup + window)
	for _, h := range tb.Hosts() {
		res.Drops.Add(h)
	}
	res.Drops = res.Drops.Sub(before)

	lat := stats.NewHistogram()
	for _, sk := range socks {
		res.Delivered += sk.Delivered.Value()
		res.SocketDrops += sk.SocketDrops.Value()
		lat.Merge(sk.Latency)
	}
	res.PPS = stats.Rate(res.Delivered, int64(window))
	res.Latency = lat.Summarize()
	res.LatencyHist = lat

	srv := tb.Server
	res.NICDrops = srv.NIC.Drops.Value()
	res.BacklogDrops = srv.St.Drops.Value()
	n := srv.M.NumCores()
	res.CoreBusy = make([]float64, n)
	res.CoreSoftirq = make([]float64, n)
	res.CoreTask = make([]float64, n)
	for c := 0; c < n; c++ {
		res.CoreBusy[c] = srv.M.Acct.Utilization(c)
		res.CoreSoftirq[c] = srv.M.Acct.ContextShare(c, stats.CtxSoftIRQ)
		res.CoreTask[c] = srv.M.Acct.ContextShare(c, stats.CtxTask)
	}
	res.HardIRQs = srv.M.IRQ.Total(stats.IRQHard)
	res.NetRX = srv.M.IRQ.Total(stats.IRQNetRX)
	res.RES = srv.M.IRQ.Total(stats.IRQRES)
	return res
}

// SystemUtilization returns the mean busy fraction across server cores.
func (r Result) SystemUtilization() float64 {
	if len(r.CoreBusy) == 0 {
		return 0
	}
	s := 0.0
	for _, u := range r.CoreBusy {
		s += u
	}
	return s / float64(len(r.CoreBusy))
}
