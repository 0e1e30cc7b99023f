package overlay_test

import (
	"bytes"
	"fmt"
	"testing"

	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/transport"
)

// misuseAuditor is a minimal skb.Auditor that records pool misuses.
type misuseAuditor struct {
	misuses []string
}

func (a *misuseAuditor) SKBGet(*skb.SKB, string)   {}
func (a *misuseAuditor) SKBStage(*skb.SKB, string) {}
func (a *misuseAuditor) SKBFree(*skb.SKB)          {}
func (a *misuseAuditor) SKBMisuse(_ *skb.SKB, kind string) {
	a.misuses = append(a.misuses, kind)
}

// wireBed is three container hosts flooding one server container with
// 65000 B UDP datagrams over 10 Gb/s links whose transmit queues are
// short enough to overflow, plus a fourth host holding a 4 KB TCP
// connection into the same server with GRO on both levels.
type wireBed struct {
	e       *sim.Engine
	n       *overlay.Network
	server  *overlay.Host
	clients []*overlay.Host // UDP flooders
	tcpHost *overlay.Host
	tcp     *transport.Conn
}

var (
	wireServerCtr = proto.IP4(10, 40, 0, 100)
	wireServerIP  = proto.IP4(192, 168, 40, 100)
)

func newWireBed(t *testing.T) *wireBed {
	t.Helper()
	e := sim.New(11)
	n := overlay.NewNetwork(e)
	hostCfg := func(name string, ip proto.IPv4Addr) overlay.HostConfig {
		return overlay.HostConfig{Name: name, IP: ip, Cores: 4,
			RSSCores: []int{0}, RPSCores: []int{1}, GRO: true, InnerGRO: true}
	}
	b := &wireBed{e: e, n: n, server: n.AddHost(hostCfg("server", wireServerIP))}
	srvCtr := b.server.AddContainer("srv", wireServerCtr)
	b.server.OpenUDP(wireServerCtr, 5001, 2)
	for i := 0; i < 3; i++ {
		c := n.AddHost(hostCfg(fmt.Sprintf("c%d", i), proto.IP4(192, 168, 40, byte(i+1))))
		c.AddContainer(fmt.Sprintf("ctr%d", i), proto.IP4(10, 40, 0, byte(i+1)))
		n.Connect(c, b.server, 10*devices.Gbps, sim.Microsecond)
		c.LinkTo(wireServerIP).TxQueueLen = 4
		b.clients = append(b.clients, c)
	}
	b.tcpHost = n.AddHost(hostCfg("tcp", proto.IP4(192, 168, 40, 4)))
	tcpCtr := b.tcpHost.AddContainer("tcp", proto.IP4(10, 40, 0, 4))
	n.Connect(b.tcpHost, b.server, 10*devices.Gbps, sim.Microsecond)
	conn, err := transport.Dial(transport.Config{
		Net: n, SenderHost: b.tcpHost, SenderCtr: tcpCtr, SenderCore: 3,
		SrcPort: 6000, ReceiverHost: b.server, ReceiverCtr: srvCtr, AppCore: 3, DstPort: 6001,
		MsgSize: 4096,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.tcp = conn
	return b
}

// flood schedules every client container's 65000 B UDP stream, one
// datagram per 20 µs (the link serializes one per ~52 µs).
func (b *wireBed) flood(until sim.Time) {
	for i, c := range b.clients {
		ctr, port := c.Containers()[0], uint16(7000+i)
		var seq uint64
		var send func()
		send = func() {
			seq++
			c.SendUDP(overlay.SendParams{From: ctr, SrcPort: port, DstIP: wireServerCtr,
				DstPort: 5001, Payload: 65000, Core: 2, FlowID: uint64(i + 1), Seq: seq})
			if b.e.Now()+20*sim.Microsecond < until {
				b.e.After(20*sim.Microsecond, send)
			}
		}
		b.e.At(sim.Time(i)*3*sim.Microsecond, send)
	}
}

// tappedFrame is one frame's wire bytes (skb.Linear) as it reached the
// far end of a link, with the host that sent it.
type tappedFrame struct {
	from  *overlay.Host
	bytes []byte
}

// rebuild constructs the frame from scratch with the reference builders
// (proto.BuildUDPFrame/BuildTCPFrame, then proto.Encapsulate), using the
// tapped frame's own inner and outer IP IDs and the KV store's current
// mapping.
func rebuild(t *testing.T, n *overlay.Network, f tappedFrame) []byte {
	t.Helper()
	outer, err := proto.ParseFrame(f.bytes)
	if err != nil {
		t.Fatalf("outer parse: %v", err)
	}
	inner, err := proto.ParseFrame(outer.Payload[proto.VXLANLen:])
	if err != nil {
		t.Fatalf("inner parse: %v", err)
	}
	h := f.from
	ctr := h.ContainerByIP(inner.IP.Src)
	if ctr == nil {
		t.Fatalf("no container %v on %s", inner.IP.Src, h.Name)
	}
	info, err := n.KV.Get(inner.IP.Dst)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, len(inner.Payload))
	var frame []byte
	if inner.IP.Protocol == proto.ProtoTCP {
		frame = proto.BuildTCPFrame(ctr.MAC, info.ContainerMAC, ctr.IP, inner.IP.Dst, inner.TCP, inner.IP.ID, payload)
	} else {
		frame = proto.BuildUDPFrame(ctr.MAC, info.ContainerMAC, ctr.IP, inner.IP.Dst,
			inner.SrcPort(), inner.DstPort(), inner.IP.ID, payload)
	}
	hash := skb.FlowKey{SrcIP: inner.IP.Src, DstIP: inner.IP.Dst,
		SrcPort: inner.SrcPort(), DstPort: inner.DstPort(), Proto: inner.IP.Protocol}.Hash()
	return proto.Encapsulate(frame, h.MAC, info.HostMAC, h.IP, info.HostIP,
		uint16(49152+hash%16384), n.VNI, outer.IP.ID)
}

// flakyFault is a LookupFault that delays every lookup by 3 µs and
// fails every fifth one per consulting host — often enough to exercise
// the backoff retries, never enough to exhaust them.
type flakyFault map[proto.IPv4Addr]int

func (f flakyFault) Lookup(hostIP, _ proto.IPv4Addr) (sim.Time, bool) {
	f[hostIP]++
	return 3 * sim.Microsecond, f[hostIP]%5 == 0
}

// runWire runs the wire bed for 3 ms with setup applied first, taps
// every frame that reaches the far end of a link and checks its wire
// bytes against a scratch build. It returns the counts of 64 KB UDP and
// TCP frames checked.
func runWire(t *testing.T, setup func(b *wireBed)) (b *wireBed, udp, tcp int) {
	t.Helper()
	b = newWireBed(t)
	aud := &misuseAuditor{}
	var frames []tappedFrame
	tap := func(from *overlay.Host, l *devices.Link) {
		deliver := l.Deliver
		l.Deliver = func(s *skb.SKB) {
			if len(s.Data) > proto.OverlayOverhead+proto.TCPHeadersLen {
				t.Errorf("frame from %s stores %d B, more than its headers", from.Name, len(s.Data))
			}
			frames = append(frames, tappedFrame{from: from, bytes: append([]byte(nil), s.Linear()...)})
			deliver(s)
		}
	}
	for _, c := range append(b.clients, b.tcpHost) {
		c.Audit = aud
		tap(c, c.LinkTo(wireServerIP))
		tap(b.server, b.server.LinkTo(c.IP))
	}
	const until = 3 * sim.Millisecond
	setup(b)
	b.flood(until)
	b.tcp.StartContinuous()
	b.e.RunUntil(until)

	for i, f := range frames {
		if want := rebuild(t, b.n, f); !bytes.Equal(f.bytes, want) {
			t.Fatalf("frame %d from %s (%d B) differs from a scratch build", i, f.from.Name, len(f.bytes))
		}
		if len(f.bytes) > 60000 {
			udp++
		} else {
			tcp++
		}
	}
	if len(aud.misuses) != 0 {
		t.Fatalf("auditor reported %v", aud.misuses)
	}
	return b, udp, tcp
}

// TestWireFramesMatchScratchBuild checks every frame that reaches the
// far end of a link against a from-scratch build. Frames store only
// headers and carry each payload as a zero tail; transmit-queue drops
// recycle header buffers straight back into the senders' arenas, and
// the receiver's GRO grows TCP tails in place, so every buffer history
// the datapath produces is exercised — for frames built from cached
// entries, from one-off entries inside a KV fault window, and from
// stale entries a partitioned host serves.
func TestWireFramesMatchScratchBuild(t *testing.T) {
	t.Run("cached", func(t *testing.T) {
		b, udp, tcp := runWire(t, func(*wireBed) {})
		for i, c := range b.clients {
			if c.LinkTo(wireServerIP).Dropped.Value() == 0 {
				t.Fatalf("client %d: no link-txq drops", i)
			}
		}
		if b.server.Rx.InnerGROMerged()+b.server.NIC.GROMerged() == 0 {
			t.Fatal("GRO merged no TCP segments")
		}
		if udp < 100 || tcp < 100 {
			t.Fatalf("tapped %d 64 KB frames and %d TCP frames; want at least 100 of each", udp, tcp)
		}
	})
	t.Run("kv-fault", func(t *testing.T) {
		// Every host resolves per packet from the start: no frame is
		// built from a cached entry.
		b, udp, tcp := runWire(t, func(b *wireBed) { b.n.KV.SetFault(flakyFault{}) })
		for _, h := range append(b.clients, b.tcpHost, b.server) {
			if h.KVRetries.Value() == 0 {
				t.Fatalf("%s: no lookup retried under the fault", h.Name)
			}
			if h.TxResolveDrops.Value() != 0 {
				t.Fatalf("%s: %d resolve drops", h.Name, h.TxResolveDrops.Value())
			}
		}
		if udp < 100 || tcp < 100 {
			t.Fatalf("tapped %d 64 KB frames and %d TCP frames; want at least 100 of each", udp, tcp)
		}
	})
	t.Run("partition-stale", func(t *testing.T) {
		// Each client warms its flow, is cut off from the control plane,
		// and then a generation bump expires its entry: every later send
		// serves that entry stale (well inside PartitionStaleBound).
		b, udp, _ := runWire(t, func(b *wireBed) {
			b.e.At(500*sim.Microsecond, func() {
				for _, c := range b.clients {
					b.n.KV.SetPartitioned(c.IP, true)
				}
				b.n.BumpGeneration()
			})
		})
		for _, c := range b.clients {
			if c.StaleServes.Value() < 50 {
				t.Fatalf("%s: %d stale serves, want at least 50", c.Name, c.StaleServes.Value())
			}
		}
		if udp < 100 {
			t.Fatalf("tapped %d 64 KB frames; want at least 100", udp)
		}
	})
}
