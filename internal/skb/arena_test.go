package skb

import (
	"bytes"
	"testing"

	"falcon/internal/proto"
)

// Geometry of a 64 KB overlay send: UDP headers, VXLAN headroom.
const (
	tmplHdr      = proto.EthLen + proto.IPv4Len + proto.UDPLen
	tmplHeadroom = proto.OverlayOverhead
	tmplLen      = 65000
	marker       = 0xA5
)

// template returns an n-byte frame template: hdr non-zero header bytes,
// then a zero payload.
func template(n, hdr int) []byte {
	b := make([]byte, n)
	for i := 0; i < hdr; i++ {
		b[i] = byte(i + 1)
	}
	return b
}

// headerOnly runs a.NewTxFrom and reports whether it copied only the
// headers. It first plants a marker in the last payload byte of the
// buffer on top of a's jumbo free list, leaving the zero tag alone as a
// rogue writer would: a full copy overwrites the marker, a header-only
// fill leaves it in the frame.
func headerOnly(t *testing.T, a *Arena, tmpl []byte, hdr, headroom int, zeroTail bool) (*SKB, bool) {
	t.Helper()
	if tmpl[len(tmpl)-1] == marker {
		t.Fatal("template's last byte collides with the marker")
	}
	j := a.jumbos[len(a.jumbos)-1]
	j.b[headroom+len(tmpl)-1] = marker
	s := a.NewTxFrom(tmpl, hdr, headroom, zeroTail)
	if s.jumbo != j {
		t.Fatal("arena did not reuse the buffer on top of its free list")
	}
	return s, s.Data[len(tmpl)-1] == marker
}

func TestNewTxFromHitEqualsTemplate(t *testing.T) {
	a := NewArena()
	tmpl := template(tmplLen, tmplHdr)
	for i := 0; i < 3; i++ {
		s := a.NewTxFrom(tmpl, tmplHdr, tmplHeadroom, true)
		if !bytes.Equal(s.Data, tmpl) {
			t.Fatalf("send %d: frame differs from template", i)
		}
		// Header writers may patch the primed frame (IP ID, TCP header).
		proto.PatchIPv4ID(s.Data, uint16(i+1))
		s.Free()
	}
	s, hit := headerOnly(t, a, tmpl, tmplHdr, tmplHeadroom, true)
	if !hit {
		t.Fatal("reuse with the same geometry copied the whole template")
	}
	if !bytes.Equal(s.Data[:tmplHdr], tmpl[:tmplHdr]) {
		t.Fatal("header-only fill left stale headers")
	}
}

func TestNewTxFromFreshBufferHits(t *testing.T) {
	j := jumboPool.New().(*jumboBuf)
	if j.zeroFrom != 0 || j.zeroTo != jumboBufCap {
		t.Fatalf("fresh buffer tagged [%d,%d), want the whole buffer", j.zeroFrom, j.zeroTo)
	}
	a := NewArena()
	a.jumbos = append(a.jumbos, j)
	if _, hit := headerOnly(t, a, template(tmplLen, tmplHdr), tmplHdr, tmplHeadroom, true); !hit {
		t.Fatal("fresh buffer took the full copy")
	}
}

// TestNewTxFromRewritesClearTag covers every way a buffer's bytes can
// change outside NewTxFrom's header writes: each must force the next
// reuse to copy the whole template.
func TestNewTxFromRewritesClearTag(t *testing.T) {
	tmpl := template(tmplLen, tmplHdr)
	cases := []struct {
		name    string
		rewrite func(a *Arena, s *SKB)
	}{
		{"SetData", func(a *Arena, s *SKB) {
			// A GRO merge appends in place, past the frame's end.
			s.SetData(append(s.Data[:len(s.Data)-100], bytes.Repeat([]byte{marker}, 100)...))
			s.Free()
		}},
		{"DisownBuf", func(a *Arena, s *SKB) {
			j := s.jumbo
			s.DisownBuf()
			s.Free()
			// The reassembler owns the bytes now; were the buffer ever
			// recycled, its tag must not vouch for them.
			a.jumbos = append(a.jumbos, j)
		}},
		{"NewTx", func(a *Arena, s *SKB) {
			s.Free()
			s = a.NewTx(tmplLen, tmplHeadroom)
			for i := range s.Data {
				s.Data[i] = 1
			}
			s.Free()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewArena()
			c.rewrite(a, a.NewTxFrom(tmpl, tmplHdr, tmplHeadroom, true))
			s, hit := headerOnly(t, a, tmpl, tmplHdr, tmplHeadroom, true)
			if hit {
				t.Fatal("reuse after a rewrite took the header-only path")
			}
			if !bytes.Equal(s.Data, tmpl) {
				t.Fatal("full copy differs from template")
			}
		})
	}
}

// TestNewTxFromGeometry reuses a primed buffer with other headrooms and
// frame lengths: only a payload range inside the tagged one may skip
// the copy.
func TestNewTxFromGeometry(t *testing.T) {
	cases := []struct {
		name          string
		headroom, len int
		hit           bool
	}{
		{"same", tmplHeadroom, tmplLen, true},
		{"shorter", tmplHeadroom, tmplLen - 1000, true},
		{"longer", tmplHeadroom, tmplLen + 100, false},
		{"less-headroom", 0, tmplLen, false},
		{"more-headroom-inside", tmplHeadroom + 100, tmplLen - 200, true},
		{"more-headroom-past-end", tmplHeadroom + 100, tmplLen, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewArena()
			a.NewTxFrom(template(tmplLen, tmplHdr), tmplHdr, tmplHeadroom, true).Free()
			tmpl := template(c.len, tmplHdr)
			s, hit := headerOnly(t, a, tmpl, tmplHdr, c.headroom, true)
			if hit != c.hit {
				t.Fatalf("header-only = %v, want %v", hit, c.hit)
			}
			if !c.hit && !bytes.Equal(s.Data, tmpl) {
				t.Fatal("full copy differs from template")
			}
		})
	}
}

func TestNewTxFromNonZeroTail(t *testing.T) {
	a := NewArena()
	a.jumbos = append(a.jumbos, jumboPool.New().(*jumboBuf))
	tmpl := template(tmplLen, tmplHdr)
	tmpl[tmplLen-1] = 7
	for i := 0; i < 2; i++ {
		s, hit := headerOnly(t, a, tmpl, tmplHdr, tmplHeadroom, false)
		if hit || !bytes.Equal(s.Data, tmpl) {
			t.Fatalf("send %d: non-zero-tail template not fully copied", i)
		}
		s.Free()
	}
	// The non-zero payload is in the buffer now: a zero-tail template
	// reusing it must copy everything.
	zero := template(tmplLen, tmplHdr)
	if s, hit := headerOnly(t, a, zero, tmplHdr, tmplHeadroom, true); hit || !bytes.Equal(s.Data, zero) {
		t.Fatal("zero-tail reuse trusted a buffer that held a non-zero payload")
	}
}

// TestNewTxFromPoolSpill primes more buffers than the arena keeps, so
// most spill to the global pool, then draws them back through a fresh
// arena with a longer frame. Bytes past the old payload range are
// legitimately stale; a tag lost or widened on the way through the
// pool would let them leak into the new frame.
func TestNewTxFromPoolSpill(t *testing.T) {
	const n = 3 * arenaJumboCap
	a := NewArena()
	tmpl := template(tmplLen, tmplHdr)
	var held []*SKB
	for i := 0; i < n; i++ {
		s := a.NewTxFrom(tmpl, tmplHdr, tmplHeadroom, true)
		s.back[tmplHeadroom+tmplLen+50] = marker // outside the tag
		held = append(held, s)
	}
	for _, s := range held {
		s.Free()
	}
	b := NewArena()
	longer := template(tmplLen+100, tmplHdr)
	for i := 0; i < n; i++ {
		s := b.NewTxFrom(longer, tmplHdr, tmplHeadroom, true)
		if !bytes.Equal(s.Data, longer) {
			t.Fatalf("draw %d from the pool: frame differs from template", i)
		}
		if s.jumbo.zeroFrom != tmplHeadroom+tmplHdr || s.jumbo.zeroTo != tmplHeadroom+len(longer) {
			t.Fatalf("draw %d: tag [%d,%d) after priming", i, s.jumbo.zeroFrom, s.jumbo.zeroTo)
		}
	}
}

var sinkSKB *SKB

func BenchmarkNewTxFrom(b *testing.B) {
	cases := []struct {
		name     string
		n        int
		zeroTail bool
	}{
		{"64KB-hit", tmplLen, true},
		{"64KB-miss", tmplLen, false},
		{"1500B", 1500, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			a := NewArena()
			tmpl := template(c.n, tmplHdr)
			b.SetBytes(int64(c.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSKB = a.NewTxFrom(tmpl, tmplHdr, tmplHeadroom, c.zeroTail)
				sinkSKB.Free()
			}
		})
	}
}
