package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"falcon/internal/devices"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/socket"
	"falcon/internal/stats"
)

// counts is a snapshot of every simulated counter the gate and the
// deterministic metrics read. All fields are whole-run totals: the
// benchmark never resets a counter, it subtracts snapshots.
type counts struct {
	sent      uint64 // application messages into the transmit path
	delivered uint64 // segments consumed by the receiving applications
	acks      uint64 // TCP ACKs sent
	retrans   uint64 // TCP retransmissions

	fired uint64 // simulation events

	// Transmit side, summed over every host.
	txMsgs, wire, txqDrops, resolveDrops, buildDrops uint64
	// Receive side, summed over the receiving hosts: frames that
	// arrived on their ingress links, and every terminal bucket.
	ingress, lost, consumed, groMerged                                uint64
	nicDrops, backlogDrops, sockDrops, pathDrops, l4Drops, crashDrops uint64

	win sim.ClusterStats
}

// drops sums the per-reason drop buckets.
func (c counts) drops() uint64 {
	return c.txqDrops + c.resolveDrops + c.buildDrops + c.lost +
		c.nicDrops + c.backlogDrops + c.sockDrops + c.pathDrops + c.l4Drops + c.crashDrops
}

// txInFlight is what has entered a transmit path but has neither left
// on a wire nor been dropped there.
func (c counts) txInFlight() int64 {
	return int64(c.txMsgs) - int64(c.wire+c.txqDrops+c.resolveDrops+c.buildDrops)
}

// rxInFlight is what has arrived at a receiving host but has neither
// reached an application, been absorbed by GRO, nor been dropped.
func (c counts) rxInFlight() int64 {
	return int64(c.ingress) - int64(c.lost+c.consumed+c.groMerged+
		c.nicDrops+c.backlogDrops+c.sockDrops+c.pathDrops+c.l4Drops+c.crashDrops)
}

func (c counts) sub(o counts) counts {
	return counts{
		sent: c.sent - o.sent, delivered: c.delivered - o.delivered,
		acks: c.acks - o.acks, retrans: c.retrans - o.retrans,
		fired:  c.fired - o.fired,
		txMsgs: c.txMsgs - o.txMsgs, wire: c.wire - o.wire, txqDrops: c.txqDrops - o.txqDrops,
		resolveDrops: c.resolveDrops - o.resolveDrops, buildDrops: c.buildDrops - o.buildDrops,
		ingress: c.ingress - o.ingress, lost: c.lost - o.lost,
		consumed: c.consumed - o.consumed, groMerged: c.groMerged - o.groMerged,
		nicDrops: c.nicDrops - o.nicDrops, backlogDrops: c.backlogDrops - o.backlogDrops,
		sockDrops: c.sockDrops - o.sockDrops, pathDrops: c.pathDrops - o.pathDrops,
		l4Drops: c.l4Drops - o.l4Drops, crashDrops: c.crashDrops - o.crashDrops,
		win: sim.ClusterStats{
			Windows: c.win.Windows - o.win.Windows, WidthSum: c.win.WidthSum - o.win.WidthSum,
			Msgs: c.win.Msgs - o.win.Msgs, BusySum: c.win.BusySum - o.win.BusySum,
			UsedSlots: c.win.UsedSlots - o.win.UsedSlots, Slots: c.win.Slots - o.win.Slots,
			Globals: c.win.Globals - o.win.Globals,
		},
	}
}

func (b *bed) snapshot() counts {
	c := counts{sent: b.sent(), fired: b.e.Fired()}
	for _, sk := range b.socks {
		c.delivered += sk.Delivered.Value()
		c.consumed += sk.Consumed.Value()
		c.sockDrops += sk.SocketDrops.Value()
	}
	for _, cn := range b.conns {
		c.acks += cn.AcksSent.Value()
		c.retrans += cn.Retransmits.Value()
	}
	for _, h := range b.hosts {
		c.txMsgs += h.TxMsgs.Value()
		c.resolveDrops += h.TxResolveDrops.Value()
		c.buildDrops += h.TxBuildDrops.Value()
		h.EachLink(func(_ proto.IPv4Addr, l *devices.Link) {
			c.wire += l.Sent.Value()
			c.txqDrops += l.Dropped.Value()
		})
	}
	for _, h := range b.rx {
		for _, src := range b.hosts {
			if l := src.LinkTo(h.IP); l != nil && src != h {
				c.ingress += l.Sent.Value()
				c.lost += l.Lost.Value()
			}
		}
		c.groMerged += h.NIC.GROMerged() + h.Rx.InnerGROMerged()
		c.nicDrops += h.NIC.Drops.Value()
		c.backlogDrops += h.St.Drops.Value()
		c.pathDrops += h.Rx.PathDrops.Value()
		c.l4Drops += h.L4Drops.Value()
		c.crashDrops += h.CrashDrops.Value()
	}
	if cl, ok := b.e.(*sim.Cluster); ok {
		c.win = cl.Stats()
	}
	return c
}

// simResult is everything a repetition computes in simulated time. It
// is a pure function of the workload and seed.
type simResult struct {
	win            counts // measured-window deltas
	p50ns, p99ns   int64
	softirqNs      int64   // simulated softirq CPU time, all hosts
	maxCoreUtil    float64 // busiest simulated core, all hosts
	inFlightAtEnd  int64   // whole-run sent − delivered − drops when the window closed
	windowSeconds  float64
	totalSent      uint64 // whole run, after the drain
	totalDelivered uint64
	totalDrops     uint64
}

func (r simResult) kpps() float64 { return float64(r.win.delivered) / r.windowSeconds / 1e3 }

func (r simResult) dropFrac() float64 { return ratio(r.win.drops(), r.win.sent) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// modelDigest hashes the simulated outputs a serial and a sharded run
// of one seed must agree on: traffic, drops, latency and CPU time.
func (r simResult) modelDigest() uint64 {
	h := fnv.New64a()
	w := r.win
	fmt.Fprintln(h, w.sent, w.delivered, w.acks, w.retrans, w.txMsgs, w.wire, w.txqDrops,
		w.resolveDrops, w.buildDrops, w.ingress, w.lost, w.consumed, w.groMerged,
		w.nicDrops, w.backlogDrops, w.sockDrops, w.pathDrops, w.l4Drops, w.crashDrops)
	fmt.Fprintln(h, r.p50ns, r.p99ns, r.softirqNs, math.Float64bits(r.maxCoreUtil),
		r.inFlightAtEnd, r.totalSent, r.totalDelivered, r.totalDrops)
	return h.Sum64()
}

// digest extends modelDigest with the engine's own counts (events and
// cluster windows), which repetitions of one configuration share.
func (r simResult) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintln(h, r.modelDigest(), r.win.fired, r.win.win)
	return h.Sum64()
}

// collect reads the window's simulated results from the bed.
func (b *bed) collect(w spec, before, after counts) simResult {
	r := simResult{win: after.sub(before), windowSeconds: w.window().Seconds()}
	r.p50ns, r.p99ns = b.lat.quantiles()
	for _, h := range b.hosts {
		for c := 0; c < h.M.NumCores(); c++ {
			r.softirqNs += h.M.Acct.Busy(c, stats.CtxSoftIRQ)
			if u := h.M.Acct.Utilization(c); u > r.maxCoreUtil {
				r.maxCoreUtil = u
			}
		}
	}
	r.inFlightAtEnd = int64(after.sent) - int64(after.delivered) - int64(after.drops())
	return r
}

// startWindow starts the window-scoped accounting: latency capture and
// simulated CPU time. Counters are never reset.
func (b *bed) startWindow() {
	b.lat.start(b.socks)
	for _, h := range b.hosts {
		h.M.ResetMeasurement()
	}
}

// latencies captures the exact end-to-end latency of every segment the
// applications consume in the window, measured as the sockets measure
// it: from the sender's send-time stamp (the wire time for frames
// without one) to consumption. The sockets' own histograms round to a
// bucket; exact values keep the percentiles sensitive to small model
// changes.
type latencies struct {
	on bool
	// Latencies in ns (int32 holds 2.1 s), per socket: each socket
	// lives on one logical process, so sharded runs append without
	// sharing.
	v [][]int32
}

// latencyBufs carries the capture buffers from one repetition to the
// next, so only the first repetition's window allocates them.
var latencyBufs [][]int32

func (l *latencies) start(socks []*socket.Socket) {
	l.on = true
	for len(latencyBufs) < len(socks) {
		latencyBufs = append(latencyBufs, nil)
	}
	l.v = latencyBufs[:len(socks)]
	for i, sk := range socks {
		i := i
		l.v[i] = l.v[i][:0]
		sk.OnDeliver = func(s *skb.SKB) {
			if !l.on {
				return
			}
			origin := s.WireTime
			if s.SendTime != 0 {
				origin = s.SendTime
			}
			for n := max(s.Segs, 1); n > 0; n-- {
				l.v[i] = append(l.v[i], int32(s.Delivered-origin))
			}
		}
	}
}

// quantiles stops the capture and returns the median and the 99th
// percentile (nearest rank).
func (l *latencies) quantiles() (p50, p99 int64) {
	l.on = false
	var all []int32
	for _, v := range l.v {
		all = append(all, v...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	at := func(q float64) int64 { return int64(all[min(int(q*float64(len(all))), len(all)-1)]) }
	return at(0.50), at(0.99)
}

// drain stops the traffic sources and runs the simulation until every
// packet in flight has reached a terminal bucket, then checks packet
// conservation over the whole run:
//
//	sent = delivered + per-reason drops + in flight,
//
// closed on both sides of the wire. Transmit: every message entering a
// host's transmit path left on a link or was dropped there. Receive:
// every frame arriving at a receiving host reached an application, was
// absorbed into a GRO super-packet, or was dropped. With nothing left
// in flight, both residuals must be exactly zero.
func (b *bed) drain(r *simResult) error {
	b.stop()
	c := b.snapshot()
	for i := 0; i < 50 && (c.txInFlight() != 0 || c.rxInFlight() != 0); i++ {
		b.e.RunUntil(b.e.Now() + sim.Millisecond)
		c = b.snapshot()
	}
	r.totalSent, r.totalDelivered, r.totalDrops = c.sent, c.delivered, c.drops()
	if tx := c.txInFlight(); tx != 0 {
		return fmt.Errorf("transmit conservation: %d messages unaccounted (tx msgs %d, wire %d, txq %d, resolve %d, build %d)",
			tx, c.txMsgs, c.wire, c.txqDrops, c.resolveDrops, c.buildDrops)
	}
	if rx := c.rxInFlight(); rx != 0 {
		return fmt.Errorf("receive conservation: %d frames unaccounted (ingress %d, consumed %d, gro %d, lost %d, nic %d, backlog %d, sock %d, path %d, l4 %d, crash %d)",
			rx, c.ingress, c.consumed, c.groMerged, c.lost, c.nicDrops, c.backlogDrops,
			c.sockDrops, c.pathDrops, c.l4Drops, c.crashDrops)
	}
	if b.conns == nil && c.sent != c.txMsgs {
		return fmt.Errorf("send conservation: applications sent %d, transmit paths saw %d", c.sent, c.txMsgs)
	}
	if r.inFlightAtEnd < 0 {
		return fmt.Errorf("conservation at window end: delivered + drops exceed sent by %d", -r.inFlightAtEnd)
	}
	return nil
}
