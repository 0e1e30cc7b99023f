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

// rebuild constructs the frame from scratch the way the uncached
// transmit path does (buildInner, then proto.Encapsulate), using the
// tapped frame's own inner and outer IP IDs.
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
	p := overlay.SendParams{From: ctr, SrcPort: inner.SrcPort(), DstIP: inner.IP.Dst,
		DstPort: inner.DstPort(), Payload: len(inner.Payload)}
	var tcp *proto.TCPHdr
	if inner.IP.Protocol == proto.ProtoTCP {
		tcp = &inner.TCP
	}
	frame, err := h.BuildInner(p, inner.IP.Protocol, tcp, info)
	if err != nil {
		t.Fatal(err)
	}
	proto.PatchIPv4ID(frame, inner.IP.ID)
	hash := skb.FlowKey{SrcIP: inner.IP.Src, DstIP: inner.IP.Dst,
		SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: inner.IP.Protocol}.Hash()
	return proto.Encapsulate(frame, h.MAC, info.HostMAC, h.IP, info.HostIP,
		uint16(49152+hash%16384), n.VNI, outer.IP.ID)
}

// TestWireFramesMatchScratchBuild taps every frame that reaches the far
// end of a link and checks its wire bytes against a from-scratch build.
// The fast path stores only headers and carries each payload as a zero
// tail; transmit-queue drops recycle header buffers straight back into
// the senders' arenas, and the receiver's GRO grows TCP tails in place,
// so every buffer history the datapath produces is exercised.
func TestWireFramesMatchScratchBuild(t *testing.T) {
	b := newWireBed(t)
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
	b.flood(until)
	b.tcp.StartContinuous()
	b.e.RunUntil(until)

	for i, c := range b.clients {
		if c.LinkTo(wireServerIP).Dropped.Value() == 0 {
			t.Fatalf("client %d: no link-txq drops", i)
		}
	}
	if b.server.Rx.InnerGROMerged()+b.server.NIC.GROMerged() == 0 {
		t.Fatal("GRO merged no TCP segments")
	}
	var udp, tcp int
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
	if udp < 100 || tcp < 100 {
		t.Fatalf("tapped %d 64 KB frames and %d TCP frames; want at least 100 of each", udp, tcp)
	}
	if len(aud.misuses) != 0 {
		t.Fatalf("auditor reported %v", aud.misuses)
	}
}
