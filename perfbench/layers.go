package main

import (
	"encoding/binary"
	"time"

	"falcon/internal/gro"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// layers are the internal/ packages the profile attribution reports,
// each as <pkg>.self_frac.
var layers = []string{
	"sim", "cpu", "netdev", "devices", "overlay", "skb", "gro", "proto",
	"transport", "socket", "steering", "core", "stats", "costmodel", "trace", "workload",
}

// perLayer computes the per-layer metrics: profile shares from the
// traced repetitions, deterministic counts and runtime deltas from the
// untraced ones, and micro-timings of single layer calls.
func perLayer(w spec, plain, traced []rep) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	a := attribution{layer: map[string]int64{}}
	for _, r := range traced {
		if err := a.attribute(r.profile); err != nil {
			panic(err) // runtime/pprof wrote it: unreadable means a parser bug
		}
	}
	for _, l := range layers {
		put(l+".self_frac", a.frac(a.layer[l]), "frac")
	}
	put("runtime.gc_frac", a.frac(a.none), "frac")
	put("sim.cluster_self_frac", a.frac(a.cluster), "frac")
	put("bench.profile_samples", float64(a.total), "count")
	// Wall-clock twins of the end-to-end CPU figures: on the sharded
	// workload the difference is parallelism, on the serial ones time
	// the host took away. The tracing overhead is taken in wall time:
	// in CPU time it would also count pprof's profile writer, which runs
	// on the other CPU.
	plainNs, tracedNs := nsPerPkt(plain, false), nsPerPkt(traced, false)
	overhead := 0.0
	if plainNs > 0 {
		overhead = tracedNs/plainNs - 1
	}
	put("bench.trace_overhead_frac", overhead, "frac")
	put("bench.wall_ns_per_pkt", plainNs, "ns")
	put("bench.slice_wall_ms_p95", sliceMs(plain, 0.95, false), "ms")

	if len(plain) == 0 {
		return m
	}
	res := plain[0].res
	c := res.win
	pkts := float64(max(c.delivered, 1))
	perPkt := func(n uint64) float64 { return float64(n) / pkts }
	put("sim.events_per_pkt", perPkt(c.fired), "1/pkt")
	put("sim.window_width_us", float64(c.win.WidthSum)/float64(max(c.win.Windows, 1))/1e3, "us")
	put("sim.msgs_per_window", float64(c.win.Msgs)/float64(max(c.win.Windows, 1)), "1/window")
	put("sim.busy_slot_frac", ratio(c.win.UsedSlots, c.win.Slots), "frac")
	put("cpu.sim_softirq_ns_per_pkt", float64(res.softirqNs)/pkts, "ns/pkt")
	put("cpu.sim_max_core_util", res.maxCoreUtil, "frac")
	put("netdev.backlog_drops_per_pkt", perPkt(c.backlogDrops), "1/pkt")
	put("devices.nic_drops_per_pkt", perPkt(c.nicDrops), "1/pkt")
	put("socket.drops_per_pkt", perPkt(c.sockDrops), "1/pkt")
	put("overlay.tx_msgs_per_pkt", perPkt(c.txMsgs), "1/pkt")
	put("transport.retransmits", float64(c.retrans), "count")
	put("transport.acks_per_seg", ratio(c.acks, c.delivered), "1/seg")
	put("sim_drop_frac", res.dropFrac(), "frac")

	put("runtime.allocs_per_pkt", median(each(plain, func(r rep) float64 { return perPkt(r.allocs) })), "1/pkt")
	put("runtime.alloc_bytes_per_pkt", median(each(plain, func(r rep) float64 { return perPkt(r.allocBytes) })), "B/pkt")
	put("runtime.setup_alloc_mb", median(each(plain, func(r rep) float64 { return float64(r.setupAlloc) / 1e6 })), "MB")
	put("runtime.gc_cycles", median(each(plain, func(r rep) float64 { return float64(r.gcCycles) })), "count")
	put("runtime.window_heap_growth_mb", median(each(plain, func(r rep) float64 { return float64(r.heapGrowth) / 1e6 })), "MB")

	for name, ns := range microTimings(w, res) {
		put(name, ns, "ns")
	}
	return m
}

// microBatches × a batch of ops is timed per call; the median batch is
// reported, so a preempted batch does not move the figure.
const microBatches = 7

// timeOp returns the median ns per op of run(n) over microBatches
// batches; prepare builds each batch's inputs outside the timing and
// finish releases them.
func timeOp(n int, prepare func(), run func(n int), finish func()) float64 {
	per := make([]float64, microBatches)
	for i := range per {
		prepare()
		t0 := time.Now()
		run(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		finish()
	}
	return median(per)
}

func nop() {}

// microTimings times single public layer calls at the workload's packet
// size: the frame is the workload's own VXLAN-encapsulated packet.
func microTimings(w spec, res simResult) map[string]float64 {
	out := map[string]float64{}
	const n = 20000

	e := sim.New(1)
	noop := func(any) {}
	out["sim.schedule_fire_ns"] = timeOp(n, nop, func(n int) {
		for i := 0; i < n; i++ {
			e.AfterArg(sim.Time(1+i%997), noop, nil)
		}
		e.RunUntil(e.Now() + 1000)
	}, nop)

	inner := innerFrame(w, 0)
	arena := skb.NewArena()
	out["skb.newtx_free_ns"] = timeOp(n, nop, func(n int) {
		for i := 0; i < n; i++ {
			arena.NewTx(len(inner), proto.OverlayOverhead).Free()
		}
	}, nop)

	outer := encap(inner)
	var parsed proto.Frame
	out["proto.parse_ns"] = timeOp(n, nop, func(n int) {
		for i := 0; i < n; i++ {
			parsed, _ = proto.ParseFrame(outer)
		}
	}, nop)
	_ = parsed

	// GRO: a run of consecutive segments of one flow, as a NAPI poll
	// sees them; TCP merges, UDP passes straight through.
	pushes := 2000
	if w.size > 16000 {
		pushes = 200 // keep the batch's frames a few MB
	}
	frames := make([][]byte, pushes)
	for i := range frames {
		frames[i] = encap(innerFrame(w, uint32(i*w.size)))
	}
	var in, kept []*skb.SKB
	eng := gro.New()
	out["gro.push_ns"] = timeOp(pushes, func() {
		in = in[:0]
		for _, f := range frames {
			in = append(in, skb.New(append([]byte(nil), f...)))
		}
	}, func(n int) {
		for _, s := range in[:n] {
			if r := eng.Push(s); r != nil {
				kept = append(kept, r)
			}
		}
	}, func() {
		for _, s := range append(kept, eng.Flush()...) {
			s.Free()
		}
		kept = kept[:0]
	})

	h := stats.NewHistogram()
	rng := sim.NewRand(uint64(w.size))
	lo, span := res.p50ns/2, res.p99ns-res.p50ns/2+1
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = lo + int64(rng.Intn(int(span)))
	}
	out["stats.hist_record_ns"] = timeOp(n, nop, func(n int) {
		for _, v := range vals[:n] {
			h.Record(v)
		}
	}, nop)
	return out
}

// innerFrame builds the workload's container-to-container frame: TCP
// for the TCP workload (seq marks its place in the stream), else UDP.
func innerFrame(w spec, seq uint32) []byte {
	src, dst := proto.IP4(10, 32, 0, 1), proto.IP4(10, 32, 1, 1)
	payload := make([]byte, w.size)
	binary.BigEndian.PutUint32(payload, seq)
	if w.tcp {
		return proto.BuildTCPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2), src, dst,
			proto.TCPHdr{SrcPort: 40000, DstPort: 5200, Seq: seq, Flags: proto.TCPAck, Window: 65535}, 1, payload)
	}
	return proto.BuildUDPFrame(proto.MACFromUint64(1), proto.MACFromUint64(2), src, dst, 7000, 5001, 1, payload)
}

func encap(inner []byte) []byte {
	return proto.Encapsulate(inner, proto.MACFromUint64(3), proto.MACFromUint64(4),
		proto.IP4(192, 168, 1, 1), proto.IP4(192, 168, 1, 2), 49152, 1, 1)
}
