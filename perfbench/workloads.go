package main

import (
	"fmt"

	falconcore "falcon/internal/core"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/socket"
	"falcon/internal/transport"
	"falcon/internal/workload"
)

// spec is one benchmark workload: how to build its testbed from a seed,
// and the simulated-time shape of one repetition (warmup, then a
// measured window of fixed slices).
type spec struct {
	name string
	// size is the workload's L4 payload in bytes; the micro-timings run
	// the layer calls at this size.
	size int
	tcp  bool
	// warmup is the simulated warmup; slices × slice is the measured
	// window.
	warmup, slice sim.Time
	slices        int
	// shards is how the workload runs, in TestbedConfig.Shards terms:
	// 0 or 1 is the serial engine, negative resolves via sim.AutoShards.
	shards int
	// build constructs the bed on the given number of shards.
	build func(seed uint64, shards int) *bed
}

func (w spec) window() sim.Time { return sim.Time(w.slices) * w.slice }

// delivered counts the segments the applications have consumed.
func (b *bed) delivered() uint64 {
	var n uint64
	for _, sk := range b.socks {
		n += sk.Delivered.Value()
	}
	return n
}

// bed is a built workload: the engine, its hosts, the receiving sockets
// and the traffic sources.
type bed struct {
	e     sim.Sim
	hosts []*overlay.Host
	// rx are the hosts whose receive path the conservation check closes
	// (the hosts the benchmark's sockets live on).
	rx    []*overlay.Host
	socks []*socket.Socket
	conns []*transport.Conn
	lat   latencies
	// sent counts application messages handed to the transmit path
	// (UDP sends, or TCP data segments including retransmissions).
	sent func() uint64
	// stop halts every traffic source; in-flight packets then drain.
	stop func()
}

// The single-flow layout of the paper's Fig. 11: RSS on core 0, RPS to
// core 1, the application on core 2 and FALCON_CPUS on cores 3–5.
const (
	appCore   = 2
	floodSize = 16
	jumboSize = 65000
	tcpMsg    = 4096
	tcpConns  = 2
)

var falconCPUs = []int{3, 4, 5}

var workloads = []spec{
	{
		name: "udp16-falcon", size: floodSize,
		warmup: 10 * sim.Millisecond, slice: 500 * sim.Microsecond, slices: 300,
		build: func(seed uint64, shards int) *bed { return udpFlood(seed, shards, floodSize, true) },
	},
	{
		name: "udp64k-con", size: jumboSize,
		warmup: 10 * sim.Millisecond, slice: sim.Millisecond, slices: 200,
		build: func(seed uint64, shards int) *bed { return udpFlood(seed, shards, jumboSize, false) },
	},
	{
		name: "tcp4k-falcon", size: tcpMsg, tcp: true,
		warmup: 10 * sim.Millisecond, slice: sim.Millisecond, slices: 250,
		build: tcpPair,
	},
	{
		name: "mesh8-auto", size: meshPayload,
		warmup: 5 * sim.Millisecond, slice: 500 * sim.Microsecond, slices: 200,
		shards: -1, build: mesh8,
	},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// singleFlowBed is the standard two-host 100G testbed with one
// container per side and GRO plus inner GRO on.
func singleFlowBed(seed uint64, shards int, colocate, falcon bool) *workload.Testbed {
	tb := workload.NewTestbed(workload.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true, Seed: seed,
		Shards: shards, Colocate: colocate,
	})
	if falcon {
		tb.EnableFalconOnServer(falconcore.DefaultConfig(falconCPUs))
	}
	return tb
}

// udpFlood is the paper's UDP stress: three sockperf-style clients, on
// client cores 2–4 with source ports 7000–7002, flood one server
// container's port over VXLAN (the StressFlood shape). Each client
// starts at a seeded offset within the first 20 µs, so the seed shapes
// how the three senders interleave at the server.
func udpFlood(seed uint64, shards, size int, falcon bool) *bed {
	tb := singleFlowBed(seed, shards, false, falcon)
	first := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, size, 2, appCore, 1)
	flows := []*workload.UDPFlow{first}
	for i := 1; i < 3; i++ {
		f := first.Clone(2+i, uint64(i+1))
		f.SrcPort = uint16(7000 + i)
		flows = append(flows, f)
	}
	start := sim.NewRand(seed ^ 0x5eed)
	for _, f := range flows {
		tb.E.At(sim.Time(start.Intn(int(20*sim.Microsecond))), func() { f.Flood(sim.Time(1 << 62)) })
	}
	return &bed{
		e: tb.E, hosts: tb.Hosts(), rx: []*overlay.Host{tb.Server},
		socks: []*socket.Socket{first.Sock},
		sent: func() uint64 {
			var n uint64
			for _, f := range flows {
				n += f.Sent()
			}
			return n
		},
		stop: func() {
			for _, f := range flows {
				f.Stop()
			}
		},
	}
}

// tcpPair runs two container-to-container TCP connections in bulk mode.
// Both hosts share one engine, as transport.Dial requires. Each
// connection starts at a seeded offset so the seed shapes the ACK
// clocking of the two flows.
func tcpPair(seed uint64, shards int) *bed {
	tb := singleFlowBed(seed, shards, true, true)
	start := sim.NewRand(seed ^ 0x5eed)
	b := &bed{e: tb.E, hosts: tb.Hosts(), rx: []*overlay.Host{tb.Server}}
	for i := 0; i < tcpConns; i++ {
		c, err := transport.Dial(transport.Config{
			Net:        tb.Net,
			SenderHost: tb.Client, SenderCtr: tb.ClientCtrs[0],
			SenderCore: 2 + i, SrcPort: uint16(40000 + i),
			ReceiverHost: tb.Server, ReceiverCtr: tb.ServerCtrs[0],
			AppCore: appCore, DstPort: uint16(5200 + i),
			MsgSize: tcpMsg, FlowID: uint64(i + 1),
		}, 0)
		if err != nil {
			panic(err)
		}
		tb.E.At(sim.Time(start.Intn(200))*sim.Microsecond, c.StartContinuous)
		b.conns = append(b.conns, c)
		b.socks = append(b.socks, c.Socket())
	}
	b.sent = func() uint64 { return tb.Client.TxMsgs.Value() }
	b.stop = func() {
		for _, c := range b.conns {
			c.Close()
		}
	}
	return b
}

// Mesh ring parameters: eight hosts, each sending 256 B Poisson traffic
// at 150 Kpps to the next host's container over 10G, 20 µs links.
const (
	meshHosts   = 8
	meshPayload = 256
	meshRatePPS = 150_000
	meshPort    = 5001
)

// meshNode is one ring host's Poisson sender.
type meshNode struct {
	host    *overlay.Host
	ctr     *overlay.Container
	dst     proto.IPv4Addr
	rng     *sim.Rand
	seq     uint64
	stopped bool
}

func (n *meshNode) tick() {
	if n.stopped {
		return
	}
	n.seq++
	n.host.SendUDP(overlay.SendParams{
		From: n.ctr, SrcPort: 7000, DstIP: n.dst, DstPort: meshPort,
		Payload: meshPayload, Core: 2, FlowID: uint64(n.ctr.Host.IP), Seq: n.seq,
	})
	gap := sim.Time(n.rng.ExpFloat64() * 1e9 / meshRatePPS)
	if gap < 1 {
		gap = 1
	}
	n.host.E.After(gap, n.tick)
}

// mesh8 builds the 8-host VXLAN ring with host i on shard i. A negative
// shards value sizes the cluster with sim.AutoShards, the documented
// multi-host default.
func mesh8(seed uint64, shards int) *bed {
	workers := 0
	if shards < 0 {
		shards, workers = sim.AutoShards(meshHosts)
	}
	var e sim.Sim
	if shards > 1 {
		e = sim.NewCluster(seed, shards, workers)
	} else {
		e = sim.New(seed)
	}
	net := overlay.NewNetwork(e)
	nodes := make([]*meshNode, meshHosts)
	b := &bed{e: e}
	for i := range nodes {
		h := net.AddHost(overlay.HostConfig{
			Name: fmt.Sprintf("m%d", i), IP: proto.IP4(192, 168, 2, byte(10+i)),
			Cores: 8, RSSCores: []int{0}, RPSCores: []int{1},
			GRO: true, InnerGRO: true, Shard: i,
		})
		ctr := h.AddContainer(fmt.Sprintf("m%d-c1", i), proto.IP4(10, 33, byte(i), 1))
		nodes[i] = &meshNode{host: h, ctr: ctr, rng: e.Rand().Fork()}
		b.hosts = append(b.hosts, h)
	}
	for i := range nodes {
		net.Connect(nodes[i].host, nodes[(i+1)%meshHosts].host, 10*devices.Gbps, 20*sim.Microsecond)
	}
	for i, n := range nodes {
		n.dst = nodes[(i+1)%meshHosts].ctr.IP
		b.socks = append(b.socks, n.host.OpenUDP(n.ctr.IP, meshPort, 2))
	}
	for _, n := range nodes {
		n.tick()
	}
	b.rx = b.hosts
	b.sent = func() uint64 {
		var s uint64
		for _, n := range nodes {
			s += n.seq
		}
		return s
	}
	b.stop = func() {
		for _, n := range nodes {
			n.stopped = true
		}
	}
	return b
}
