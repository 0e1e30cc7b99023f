package gro

import (
	"bytes"
	"testing"

	"falcon/internal/proto"
	"falcon/internal/skb"
)

// paged stores only the first hdrs bytes of a linear frame and carries
// the rest as the skb's zero tail, as the transmit fast path builds it.
func paged(s *skb.SKB, hdrs int) *skb.SKB {
	p := skb.New(append([]byte(nil), s.Data[:hdrs]...))
	p.Tail = len(s.Data) - hdrs
	return p
}

// mergeBoth pushes the linear segments into one engine and their paged
// twins (keep[i] stored payload bytes kept, the rest in the tail) into
// another, and returns what each releases, in order.
func mergeBoth(segs []*skb.SKB, hdrs int, keep []int) (linear, tailed []*skb.SKB) {
	lin, tl := New(), New()
	for i, s := range segs {
		p := paged(s, hdrs+keep[i])
		if out := lin.Push(s); out != nil {
			linear = append(linear, out)
		}
		if out := tl.Push(p); out != nil {
			tailed = append(tailed, out)
		}
	}
	return append(linear, lin.Flush()...), append(tailed, tl.Flush()...)
}

func checkSameWire(t *testing.T, linear, tailed []*skb.SKB) {
	t.Helper()
	if len(linear) != len(tailed) {
		t.Fatalf("released %d super-packets, byte-append merge released %d", len(tailed), len(linear))
	}
	for i := range linear {
		if tailed[i].Segs != linear[i].Segs || !bytes.Equal(tailed[i].Linear(), linear[i].Data) {
			t.Fatalf("super-packet %d (%d segs) differs from the byte-append merge", i, tailed[i].Segs)
		}
	}
}

// TestMergeTailSegmentsMatchesByteMerge: 4 KB segments whose payloads
// are all tail merge into super-packets that are, on the wire, the
// byte-append merge of the same segments — plain TCP and VXLAN, across
// a size-cap release.
func TestMergeTailSegmentsMatchesByteMerge(t *testing.T) {
	const n, size = 20, 4096
	for _, c := range []struct {
		name string
		seg  func(seq uint32) *skb.SKB
		hdrs int
	}{
		{"plain", func(seq uint32) *skb.SKB { return tcpSeg(5000, seq, make([]byte, size)) }, proto.TCPHeadersLen},
		{"vxlan", func(seq uint32) *skb.SKB { return vxlanSeg(5000, seq, make([]byte, size), 49152) },
			proto.OverlayOverhead + proto.TCPHeadersLen},
	} {
		var segs []*skb.SKB
		for i := 0; i < n; i++ {
			segs = append(segs, c.seg(uint32(i*size)))
		}
		linear, tailed := mergeBoth(segs, c.hdrs, make([]int, n))
		if len(tailed) < 2 {
			t.Fatalf("%s: %d super-packets; the size cap never released one", c.name, len(tailed))
		}
		for _, s := range tailed {
			if len(s.Data) != c.hdrs {
				t.Fatalf("%s: super-packet stores %d B, want only its %d B of headers", c.name, len(s.Data), c.hdrs)
			}
		}
		checkSameWire(t, linear, tailed)
	}
}

// TestMergeStoredAfterTail: a segment with stored payload bytes that
// follows a tail forces the super-packet linear; the result is still
// the byte-append merge.
func TestMergeStoredAfterTail(t *testing.T) {
	mk := func(seq uint32, fill byte) *skb.SKB {
		return vxlanSeg(5000, seq, bytes.Repeat([]byte{fill}, 100), 49152)
	}
	// Zero payloads may sit in the tail; the 'b' segment must be stored.
	segs := []*skb.SKB{mk(0, 0), mk(100, 'b'), mk(200, 0)}
	linear, tailed := mergeBoth(segs, proto.OverlayOverhead+proto.TCPHeadersLen, []int{0, 100, 40})
	if len(tailed) != 1 || tailed[0].Segs != 3 {
		t.Fatalf("got %d super-packets, want one of 3 segs", len(tailed))
	}
	checkSameWire(t, linear, tailed)
	if tailed[0].Tail != 60 {
		t.Fatalf("tail %d after merging a partly stored segment, want 60", tailed[0].Tail)
	}
}
