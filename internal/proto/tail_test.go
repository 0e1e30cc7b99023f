package proto

import (
	"bytes"
	"encoding/binary"
	"testing"
)

var (
	tailSrcMAC, tailDstMAC = MACFromUint64(1), MACFromUint64(2)
	tailSrc, tailDst       = IP4(10, 0, 0, 1), IP4(10, 0, 0, 2)
)

// tailFrames returns linear frames of every shape the dissector
// handles, with the number of leading bytes that are headers.
func tailFrames() []struct {
	name  string
	frame []byte
	hdrs  int
} {
	udp := BuildUDPFrame(tailSrcMAC, tailDstMAC, tailSrc, tailDst, 7000, 5001, 3, make([]byte, 4000))
	tcp := BuildTCPFrame(tailSrcMAC, tailDstMAC, tailSrc, tailDst,
		TCPHdr{SrcPort: 40000, DstPort: 5201, Seq: 9, Flags: TCPAck, Window: 65535}, 4, make([]byte, 4096))
	fragment := func(off uint16, more bool, n int) []byte {
		b := make([]byte, EthLen+IPv4Len+n)
		copy(b, udp[:len(b)]) // the first fragment starts with the UDP header
		PutIPv4(b[EthLen:], IPv4Hdr{TotalLen: uint16(IPv4Len + n), ID: 3, TTL: 64,
			Protocol: ProtoUDP, Src: tailSrc, Dst: tailDst, MoreFrags: more, FragOff: off})
		return b
	}
	vxlan := Encapsulate(udp, MACFromUint64(3), MACFromUint64(4),
		IP4(192, 168, 1, 1), IP4(192, 168, 1, 2), 49152, 1, 5)
	return []struct {
		name  string
		frame []byte
		hdrs  int
	}{
		{"udp", udp, UDPHeadersLen},
		{"tcp", tcp, TCPHeadersLen},
		{"first-fragment", fragment(0, true, 1480), UDPHeadersLen},
		{"non-first-fragment", fragment(1480, false, 1000), EthLen + IPv4Len},
		{"vxlan", vxlan, OverlayOverhead + UDPHeadersLen},
	}
}

// TestParseFrameTailMatchesLinear stores each frame only up to a split
// point and puts the rest in the tail: the dissect must equal that of
// the linear bytes, with the payload split the same way.
func TestParseFrameTailMatchesLinear(t *testing.T) {
	for _, c := range tailFrames() {
		want, err := ParseFrame(c.frame)
		if err != nil {
			t.Fatalf("%s: linear frame: %v", c.name, err)
		}
		for _, split := range []int{c.hdrs, c.hdrs + 1, c.hdrs + 100, len(c.frame)} {
			got, err := ParseFrameTail(c.frame[:split], len(c.frame)-split)
			if err != nil {
				t.Fatalf("%s split %d: %v", c.name, split, err)
			}
			if got.Eth != want.Eth || got.IP != want.IP || got.UDP != want.UDP || got.TCP != want.TCP {
				t.Fatalf("%s split %d: headers differ", c.name, split)
			}
			if got.PayloadLen() != want.PayloadLen() {
				t.Fatalf("%s split %d: PayloadLen %d, want %d", c.name, split, got.PayloadLen(), want.PayloadLen())
			}
			if !bytes.Equal(got.Payload, want.Payload[:len(got.Payload)]) || got.Tail != len(c.frame)-split {
				t.Fatalf("%s split %d: stored payload %d B, tail %d", c.name, split, len(got.Payload), got.Tail)
			}
		}
	}
}

// TestParseFrameTailVXLANInner dissects the inner frame of a paged
// VXLAN packet through the outer payload's tail, as the skb does.
func TestParseFrameTailVXLANInner(t *testing.T) {
	inner := BuildUDPFrame(tailSrcMAC, tailDstMAC, tailSrc, tailDst, 7000, 5001, 3, make([]byte, 65000))
	outer := Encapsulate(inner, MACFromUint64(3), MACFromUint64(4),
		IP4(192, 168, 1, 1), IP4(192, 168, 1, 2), 49152, 1, 5)
	stored := OverlayOverhead + UDPHeadersLen
	f, err := ParseFrameTail(outer[:stored], len(outer)-stored)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := ParseFrameTail(f.Payload[VXLANLen:], f.Tail)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ParseFrame(inner)
	if fi.IP != want.IP || fi.UDP != want.UDP || fi.PayloadLen() != 65000 || len(fi.Payload) != 0 {
		t.Fatalf("inner dissect through the tail: %+v", fi.IP)
	}
}

// TestParseFrameTailRejects: lengths beyond stored plus tail, and
// headers that the tail cuts off, are errors.
func TestParseFrameTailRejects(t *testing.T) {
	udp := BuildUDPFrame(tailSrcMAC, tailDstMAC, tailSrc, tailDst, 7000, 5001, 3, make([]byte, 1000))
	tcp := BuildTCPFrame(tailSrcMAC, tailDstMAC, tailSrc, tailDst, TCPHdr{Flags: TCPAck}, 4, make([]byte, 1000))
	// UDP Length one byte past the frame (its checksum is not computed).
	longUDP := append([]byte(nil), udp...)
	binary.BigEndian.PutUint16(longUDP[EthLen+IPv4Len+4:], uint16(UDPLen+1001))
	// An IPv4 TotalLen shorter than the header itself, checksum intact
	// (a malformed captured frame).
	shortIP := append([]byte(nil), udp...)
	PutIPv4(shortIP[EthLen:], IPv4Hdr{TotalLen: IPv4Len - 1, TTL: 64, Protocol: ProtoUDP, Src: tailSrc, Dst: tailDst})
	cases := []struct {
		name   string
		stored []byte
		tail   int
	}{
		{"ipv4-total-len", udp[:UDPHeadersLen], 999},
		{"ipv4-total-below-header", shortIP, 0},
		{"udp-length", longUDP[:UDPHeadersLen], 1000},
		{"cut-ethernet", udp[:EthLen-1], len(udp) - EthLen + 1},
		{"cut-ipv4", udp[:EthLen+IPv4Len-1], len(udp) - EthLen - IPv4Len + 1},
		{"cut-udp", udp[:UDPHeadersLen-1], len(udp) - UDPHeadersLen + 1},
		{"cut-tcp", tcp[:TCPHeadersLen-1], len(tcp) - TCPHeadersLen + 1},
	}
	for _, c := range cases {
		if _, err := ParseFrameTail(c.stored, c.tail); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The same frames with the full tail are fine.
	if _, err := ParseFrameTail(udp[:UDPHeadersLen], 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFrameTail(tcp[:TCPHeadersLen], 1000); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderBuildersMatchFrames: the header-only builders write exactly
// the headers of the frame builders.
func TestHeaderBuildersMatchFrames(t *testing.T) {
	udp := BuildUDPFrame(tailSrcMAC, tailDstMAC, tailSrc, tailDst, 7000, 5001, 3, make([]byte, 500))
	if h := UDPHeaders(tailSrcMAC, tailDstMAC, tailSrc, tailDst, 7000, 5001, 3, 500); !bytes.Equal(h, udp[:UDPHeadersLen]) {
		t.Fatal("UDPHeaders differs from BuildUDPFrame's headers")
	}
	hdr := TCPHdr{SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: TCPAck, Window: 5}
	tcp := BuildTCPFrame(tailSrcMAC, tailDstMAC, tailSrc, tailDst, hdr, 6, make([]byte, 500))
	if h := TCPHeaders(tailSrcMAC, tailDstMAC, tailSrc, tailDst, hdr, 6, 500); !bytes.Equal(h, tcp[:TCPHeadersLen]) {
		t.Fatal("TCPHeaders differs from BuildTCPFrame's headers")
	}
}
