package proto

import (
	"encoding/binary"
	"fmt"
)

// Frame is a fully parsed Ethernet frame through L4. It is the
// simulation's equivalent of the kernel's flow dissector output.
type Frame struct {
	Eth     EthernetHdr
	IP      IPv4Hdr
	UDP     UDPHdr // valid when IP.Protocol == ProtoUDP
	TCP     TCPHdr // valid when IP.Protocol == ProtoTCP
	Payload []byte // stored part of the L4 payload (points into the original buffer)
	Tail    int    // zero payload bytes that follow Payload on the wire, never stored
}

// PayloadLen returns the L4 payload's wire length: stored bytes plus
// the zero tail.
func (f *Frame) PayloadLen() int { return len(f.Payload) + f.Tail }

// SrcPort returns the L4 source port regardless of protocol.
func (f *Frame) SrcPort() uint16 {
	if f.IP.Protocol == ProtoTCP {
		return f.TCP.SrcPort
	}
	return f.UDP.SrcPort
}

// DstPort returns the L4 destination port regardless of protocol.
func (f *Frame) DstPort() uint16 {
	if f.IP.Protocol == ProtoTCP {
		return f.TCP.DstPort
	}
	return f.UDP.DstPort
}

// ParseFrame dissects a fully stored Ethernet frame down to L4.
func ParseFrame(b []byte) (Frame, error) { return ParseFrameTail(b, 0) }

// ParseFrameTail dissects a frame whose wire bytes are b followed by
// tail zero bytes that are not stored (a paged skb's payload). Every
// header must be stored; IPv4 TotalLen and UDP Length are checked
// against len(b)+tail. Payload is the stored part of the L4 payload
// and Tail the part of it that lies in the zero tail.
func ParseFrameTail(b []byte, tail int) (Frame, error) {
	var f Frame
	var err error
	if f.Eth, err = ParseEthernet(b); err != nil {
		return f, err
	}
	if f.Eth.EtherType != EtherTypeIPv4 {
		return f, fmt.Errorf("proto: unsupported ethertype %#04x", f.Eth.EtherType)
	}
	ip := b[EthLen:]
	if f.IP, err = parseIPv4(ip, tail); err != nil {
		return f, err
	}
	// The IP packet is ip[:TotalLen] on the wire; whatever of it lies
	// past the stored bytes is in the tail.
	l4, l4Tail := ip[IPv4Len:], 0
	if total := int(f.IP.TotalLen); total <= len(ip) {
		l4 = ip[IPv4Len:total]
	} else {
		l4Tail = total - len(ip)
	}
	if f.IP.FragOff != 0 {
		// Non-first fragment: no L4 header, raw payload only.
		f.Payload, f.Tail = l4, l4Tail
		return f, nil
	}
	switch f.IP.Protocol {
	case ProtoUDP:
		if f.IP.MoreFrags {
			// First fragment: the UDP header is present but its Length
			// covers the whole (unassembled) datagram.
			if len(l4) < UDPLen {
				return f, errTruncated("udp", len(l4), UDPLen)
			}
			f.UDP = UDPHdr{
				SrcPort: binary.BigEndian.Uint16(l4[0:2]),
				DstPort: binary.BigEndian.Uint16(l4[2:4]),
				Length:  binary.BigEndian.Uint16(l4[4:6]),
			}
			f.Payload, f.Tail = l4[UDPLen:], l4Tail
			return f, nil
		}
		if f.UDP, err = parseUDP(l4, l4Tail); err != nil {
			return f, err
		}
		if n := int(f.UDP.Length); n <= len(l4) {
			f.Payload = l4[UDPLen:n]
		} else {
			f.Payload, f.Tail = l4[UDPLen:], n-len(l4)
		}
	case ProtoTCP:
		if f.TCP, err = ParseTCP(l4); err != nil {
			return f, err
		}
		f.Payload, f.Tail = l4[TCPLen:], l4Tail
	default:
		return f, fmt.Errorf("proto: unsupported IP protocol %d", f.IP.Protocol)
	}
	return f, nil
}

// Header lengths of a complete frame through L4.
const (
	UDPHeadersLen = EthLen + IPv4Len + UDPLen
	TCPHeadersLen = EthLen + IPv4Len + TCPLen
)

// BuildUDPFrame assembles a complete Ethernet+IPv4+UDP frame around
// payload. ipID feeds the IPv4 identification field.
func BuildUDPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort, dstPort uint16, ipID uint16, payload []byte) []byte {
	b := make([]byte, UDPHeadersLen+len(payload))
	putUDPHeaders(b, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, ipID, len(payload))
	copy(b[UDPHeadersLen:], payload)
	return b
}

// UDPHeaders returns the Ethernet+IPv4+UDP headers of a frame carrying
// payloadLen payload bytes: the stored part of a paged frame whose
// payload is an unstored zero tail.
func UDPHeaders(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort, dstPort uint16, ipID uint16, payloadLen int) []byte {
	b := make([]byte, UDPHeadersLen)
	putUDPHeaders(b, srcMAC, dstMAC, srcIP, dstIP, srcPort, dstPort, ipID, payloadLen)
	return b
}

func putUDPHeaders(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, srcPort, dstPort uint16, ipID uint16, payloadLen int) {
	PutEthernet(b, EthernetHdr{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4})
	PutIPv4(b[EthLen:], IPv4Hdr{
		TotalLen: uint16(IPv4Len + UDPLen + payloadLen),
		ID:       ipID,
		TTL:      64,
		Protocol: ProtoUDP,
		Src:      srcIP,
		Dst:      dstIP,
	})
	PutUDP(b[EthLen+IPv4Len:], UDPHdr{
		SrcPort: srcPort,
		DstPort: dstPort,
		Length:  uint16(UDPLen + payloadLen),
	})
}

// BuildTCPFrame assembles a complete Ethernet+IPv4+TCP frame.
func BuildTCPFrame(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, hdr TCPHdr, ipID uint16, payload []byte) []byte {
	b := make([]byte, TCPHeadersLen+len(payload))
	putTCPHeaders(b, srcMAC, dstMAC, srcIP, dstIP, hdr, ipID, len(payload))
	copy(b[TCPHeadersLen:], payload)
	return b
}

// TCPHeaders is UDPHeaders for a TCP segment.
func TCPHeaders(srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, hdr TCPHdr, ipID uint16, payloadLen int) []byte {
	b := make([]byte, TCPHeadersLen)
	putTCPHeaders(b, srcMAC, dstMAC, srcIP, dstIP, hdr, ipID, payloadLen)
	return b
}

func putTCPHeaders(b []byte, srcMAC, dstMAC MAC, srcIP, dstIP IPv4Addr, hdr TCPHdr, ipID uint16, payloadLen int) {
	PutEthernet(b, EthernetHdr{Dst: dstMAC, Src: srcMAC, EtherType: EtherTypeIPv4})
	PutIPv4(b[EthLen:], IPv4Hdr{
		TotalLen: uint16(IPv4Len + TCPLen + payloadLen),
		ID:       ipID,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      srcIP,
		Dst:      dstIP,
	})
	PutTCP(b[EthLen+IPv4Len:], hdr)
}
