package skb

import (
	"bytes"
	"testing"

	"falcon/internal/proto"
)

// Geometry of a 64 KB overlay send: UDP headers, VXLAN headroom.
const (
	tmplHeadroom = proto.OverlayOverhead
	tmplPayload  = 65000
	marker       = 0xA5
)

var (
	macA, macB = proto.MACFromUint64(1), proto.MACFromUint64(2)
	ipA, ipB   = proto.IP4(10, 0, 0, 1), proto.IP4(10, 0, 0, 2)
	tcpHdr     = proto.TCPHdr{SrcPort: 40000, DstPort: 5201, Seq: 7, Flags: proto.TCPAck, Window: 65535}
)

// udpPair returns a UDP frame's stored headers for an n-byte payload
// and the same frame built from scratch with its zero payload.
func udpPair(n int, id uint16) (hdr, full []byte) {
	return proto.UDPHeaders(macA, macB, ipA, ipB, 7000, 5001, id, n),
		proto.BuildUDPFrame(macA, macB, ipA, ipB, 7000, 5001, id, make([]byte, n))
}

// tcpPair is udpPair for a TCP segment.
func tcpPair(n int, id uint16) (hdr, full []byte) {
	return proto.TCPHeaders(macA, macB, ipA, ipB, tcpHdr, id, n),
		proto.BuildTCPFrame(macA, macB, ipA, ipB, tcpHdr, id, make([]byte, n))
}

// encapAB wraps an inner frame the way the transmit path does.
func encapAB(inner []byte) []byte {
	return proto.Encapsulate(inner, proto.MACFromUint64(3), proto.MACFromUint64(4),
		proto.IP4(192, 168, 1, 1), proto.IP4(192, 168, 1, 2), 49152, 1, 9)
}

// TestNewTxFromMatchesScratchBuild: a header template plus a tail is
// the scratch-built frame on the wire, before and after in-place
// encapsulation, and parses to the same payload length.
func TestNewTxFromMatchesScratchBuild(t *testing.T) {
	a := NewArena()
	for _, n := range []int{0, 16, 1458, 4096, tmplPayload} {
		for _, pair := range []func(int, uint16) ([]byte, []byte){udpPair, tcpPair} {
			hdr, _ := pair(n, 0)
			_, want := pair(n, 3)
			s := a.NewTxFrom(hdr, n, tmplHeadroom)
			proto.PatchIPv4ID(s.Data, 3) // header writers patch in place
			if s.Len() != len(want) || len(s.Data) != len(hdr) || s.Tail != n {
				t.Fatalf("n=%d: Len %d (stored %d, tail %d), want %d", n, s.Len(), len(s.Data), s.Tail, len(want))
			}
			if !bytes.Equal(s.Linear(), want) {
				t.Fatalf("n=%d: Linear differs from a scratch build", n)
			}
			f, err := s.Frame()
			if err != nil || f.PayloadLen() != n {
				t.Fatalf("n=%d: Frame %v, payload %d", n, err, f.PayloadLen())
			}
			if !s.Push(proto.OverlayOverhead) {
				t.Fatal("no headroom for encapsulation")
			}
			proto.PutEncapHeaders(s.Data, proto.MACFromUint64(3), proto.MACFromUint64(4),
				proto.IP4(192, 168, 1, 1), proto.IP4(192, 168, 1, 2), 49152, 1, 9, len(want))
			if !bytes.Equal(s.Linear(), encapAB(want)) {
				t.Fatalf("n=%d: encapsulated Linear differs from proto.Encapsulate", n)
			}
			s.Free()
		}
	}
}

// TestNewTxFromGeometry covers headroom and tail lengths around the
// one pooled class: frames whose headroom plus headers fit 128 B take
// a pooled buffer, the rest a plain allocation, and all are correct.
func TestNewTxFromGeometry(t *testing.T) {
	cases := []struct {
		name           string
		headroom, tail int
		pooled         bool
	}{
		{"same", tmplHeadroom, tmplPayload, true},
		{"shorter", tmplHeadroom, 16, true},
		{"longer", tmplHeadroom, 65400, true},
		{"less-headroom", 0, tmplPayload, true},
		{"more-headroom-inside", bufCap - proto.TCPHeadersLen, tmplPayload, true},
		{"more-headroom-past-end", bufCap - proto.TCPHeadersLen + 1, tmplPayload, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewArena()
			hdr, want := tcpPair(c.tail, 0)
			s := a.NewTxFrom(hdr, c.tail, c.headroom)
			if (s.buf != nil) != c.pooled {
				t.Fatalf("pooled = %v, want %v", s.buf != nil, c.pooled)
			}
			if !bytes.Equal(s.Linear(), want) {
				t.Fatal("frame differs from a scratch build")
			}
			if !s.Push(c.headroom) || s.Push(1) {
				t.Fatalf("headroom is not exactly %d", c.headroom)
			}
		})
	}
}

// TestArenaReusesHeaderBuffer: a freed frame's 128 B buffer is the
// next frame's, whatever either frame's tail.
func TestArenaReusesHeaderBuffer(t *testing.T) {
	a := NewArena()
	hdr, _ := udpPair(tmplPayload, 0)
	s := a.NewTxFrom(hdr, tmplPayload, tmplHeadroom)
	buf := s.buf
	if buf == nil {
		t.Fatal("64 KB frame did not take a pooled header buffer")
	}
	s.Free()
	small, want := udpPair(16, 0)
	s = a.NewTxFrom(small, 16, tmplHeadroom)
	if s.buf != buf {
		t.Fatal("arena did not reuse the freed buffer")
	}
	if s.Tail != 16 || !bytes.Equal(s.Linear(), want) {
		t.Fatal("reused buffer carries the previous frame's geometry")
	}
	if n := len(a.bufs); n != 0 {
		t.Fatalf("arena holds %d buffers with one frame live", n)
	}
	if big := a.NewTx(tmplPayload, tmplHeadroom); big.buf != nil {
		t.Fatal("a fully stored 64 KB frame took the 128 B class")
	}
}

// TestNewTxFromPoolSpill builds more frames than the arena keeps, so
// most buffers spill to the global pool with stale bytes in their
// headroom and past their headers, then draws them back through a
// fresh arena: none of the stale bytes may reach a frame.
func TestNewTxFromPoolSpill(t *testing.T) {
	const n = 3 * arenaBufCap
	a := NewArena()
	hdr, _ := udpPair(tmplPayload, 0)
	var held []*SKB
	for i := 0; i < n; i++ {
		s := a.NewTxFrom(hdr, tmplPayload, tmplHeadroom)
		for j := range s.back {
			s.back[j] = marker
		}
		held = append(held, s)
	}
	for _, s := range held {
		s.Free()
	}
	b := NewArena()
	thdr, want := tcpPair(1000, 0)
	for i := 0; i < n; i++ {
		s := b.NewTxFrom(thdr, 1000, 0)
		if s.buf == nil || !bytes.Equal(s.Linear(), want) {
			t.Fatalf("draw %d from the pool: frame differs from a scratch build", i)
		}
	}
}

// TestGrowTailInvalidatesParseCaches grows the tail of a VXLAN frame
// whose outer and inner dissects are cached, as a GRO merge does; both
// caches must see the longer payload.
func TestGrowTailInvalidatesParseCaches(t *testing.T) {
	hdr, _ := tcpPair(1000, 0)
	s := NewArena().NewTxFrom(hdr, 1000, tmplHeadroom)
	s.Push(proto.OverlayOverhead)
	inner := len(hdr) + 1000
	proto.PutEncapHeaders(s.Data, macA, macB, ipA, ipB, 49152, 1, 1, inner)
	if f, err := s.Frame(); err != nil || f.PayloadLen() != proto.VXLANLen+inner {
		t.Fatalf("outer Frame: %v", err)
	}
	if fi, ok := s.VXLANInner(); !ok || fi.PayloadLen() != 1000 {
		t.Fatal("inner dissect before growth")
	}
	s.GrowTail(500)
	// Patch the three length fields a merge patches.
	proto.PutEncapHeaders(s.Data, macA, macB, ipA, ipB, 49152, 1, 1, inner+500)
	innerIP := s.Data[proto.OverlayOverhead+proto.EthLen:]
	proto.PutIPv4(innerIP, proto.IPv4Hdr{TotalLen: uint16(proto.IPv4Len + proto.TCPLen + 1500),
		TTL: 64, Protocol: proto.ProtoTCP, Src: ipA, Dst: ipB})
	if s.Len() != proto.OverlayOverhead+inner+500 {
		t.Fatalf("Len %d after GrowTail", s.Len())
	}
	f, err := s.Frame()
	if err != nil || f.PayloadLen() != proto.VXLANLen+inner+500 {
		t.Fatalf("outer dissect is stale after GrowTail: %v", err)
	}
	fi, ok := s.VXLANInner()
	if !ok || fi.PayloadLen() != 1500 || fi.Tail != 1500 {
		t.Fatal("inner dissect is stale after GrowTail")
	}
}

// TestDecapVXLANKeepsTail: decapsulating a paged frame leaves the inner
// frame paged, with the inner dissect already cached.
func TestDecapVXLANKeepsTail(t *testing.T) {
	hdr, want := udpPair(tmplPayload, 0)
	s := NewArena().NewTxFrom(hdr, tmplPayload, tmplHeadroom)
	s.Push(proto.OverlayOverhead)
	proto.PutEncapHeaders(s.Data, macA, macB, ipA, ipB, 49152, 1, 1, len(want))
	if !s.DecapVXLAN() {
		t.Fatal("paged VXLAN frame did not decapsulate")
	}
	if s.Tail != tmplPayload || s.Len() != len(want) || !bytes.Equal(s.Linear(), want) {
		t.Fatalf("decapsulated frame: stored %d, tail %d", len(s.Data), s.Tail)
	}
	if f, err := s.Frame(); err != nil || f.UDP.DstPort != 5001 || f.PayloadLen() != tmplPayload {
		t.Fatalf("inner dissect after decap: %v", err)
	}
}

// TestNewTxFromRewritesClearTag: a frame's zero tail is its tag for
// the unstored bytes behind Data. Every way of rewriting or re-obtaining
// a frame must leave no tail state of the old one behind.
func TestNewTxFromRewritesClearTag(t *testing.T) {
	hdr, want := udpPair(tmplPayload, 0)
	t.Run("SetData", func(t *testing.T) {
		s := NewArena().NewTxFrom(hdr, tmplPayload, 0)
		lin := s.Linear()
		s.SetData(lin)
		if s.Tail != 0 || s.Len() != len(want) {
			t.Fatalf("after SetData: tail %d, Len %d", s.Tail, s.Len())
		}
		if got := s.Linear(); &got[0] != &lin[0] {
			t.Fatal("Linear copied a frame without a tail")
		}
		if f, err := s.Frame(); err != nil || len(f.Payload) != tmplPayload || f.Tail != 0 {
			t.Fatalf("linear frame parses with a tail: %v", err)
		}
	})
	t.Run("DisownBuf", func(t *testing.T) {
		a := NewArena()
		s := a.NewTxFrom(hdr, tmplPayload, tmplHeadroom)
		kept := s.buf
		s.DisownBuf()
		s.Free()
		// The reassembler owns the bytes now: the buffer must never be
		// handed out again.
		for i := 0; i < 2*arenaBufCap; i++ {
			if n := a.NewTxFrom(hdr, tmplPayload, tmplHeadroom); n.buf == kept {
				t.Fatal("a disowned buffer was recycled")
			}
		}
	})
	t.Run("NewTx", func(t *testing.T) {
		a := NewArena()
		a.NewTxFrom(hdr, tmplPayload, tmplHeadroom).Free()
		s := a.NewTx(64, 0)
		if s.Tail != 0 || s.Len() != 64 {
			t.Fatalf("recycled SKB kept a tail: %d, Len %d", s.Tail, s.Len())
		}
	})
}

var sinkSKB *SKB

func BenchmarkNewTxFrom(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"64KB", tmplPayload}, {"1500B", 1458}, {"16B", 16}} {
		b.Run(c.name, func(b *testing.B) {
			a := NewArena()
			hdr, _ := udpPair(c.n, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSKB = a.NewTxFrom(hdr, c.n, tmplHeadroom)
				sinkSKB.Free()
			}
		})
	}
}
