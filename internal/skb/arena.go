package skb

// Arena is a shard-local SKB and buffer allocator. The global
// sync.Pools are safe but pay per-operation atomics and bounce cache
// lines between the PDES worker goroutines that run different shards;
// an Arena is plain single-owner free lists — each simulated host gets
// one, and a host's entire datapath runs on one logical process, so
// gets and puts never race. Cross-shard packets move their pool
// affinity at the cluster barrier (SKB.Rehome, with every LP parked),
// so a frame always recycles into the arena of the shard that freed
// it.
//
// The lists are capped: overflow spills to the global pools (which
// also serve as the miss path), so a bursty host cannot strand
// unbounded memory in its arena.
type Arena struct {
	skbs   []*SKB
	bufs   []*[pooledBufCap]byte
	jumbos []*jumboBuf
}

// Arena free-list caps: enough to cover a host's steady-state in-flight
// window (ring + backlog + GRO holds) without stranding memory.
const (
	arenaSKBCap   = 512
	arenaBufCap   = 512
	arenaJumboCap = 16
)

// NewArena returns an empty arena. It fills lazily from the global
// pools as traffic flows.
func NewArena() *Arena { return &Arena{} }

// NewTx is Arena-affine NewTx: the SKB and its backing buffer come from
// (and will recycle into) this arena. A nil arena uses the global
// pools.
func (a *Arena) NewTx(size, headroom int) *SKB {
	s := a.alloc(size, headroom)
	s.jumbo.clearZero()
	return s
}

// NewTxFrom is NewTx with the frame filled from template tmpl: the
// returned Data equals tmpl, with headroom bytes of room in front of
// it. hdr is the length of tmpl's headers; zeroTail reports that
// tmpl[hdr:] is all zeros (the caller checks once per template, not
// per packet). When it is and the jumbo buffer's zero tag covers the
// new frame's payload range, only the headers are copied — the 64 KB
// payload is already in place. The tag is then set to exactly that
// payload range, so only header writers may touch the frame until it
// is freed; any other write must go through SetData, which clears it.
func (a *Arena) NewTxFrom(tmpl []byte, hdr, headroom int, zeroTail bool) *SKB {
	s := a.alloc(len(tmpl), headroom)
	j := s.jumbo
	if j == nil {
		copy(s.Data, tmpl)
		return s
	}
	from, to := headroom+hdr, headroom+len(tmpl)
	if zeroTail && j.zeroFrom <= from && to <= j.zeroTo {
		copy(s.Data[:hdr], tmpl[:hdr])
	} else {
		copy(s.Data, tmpl)
	}
	if zeroTail {
		j.zeroFrom, j.zeroTo = from, to
	} else {
		j.clearZero()
	}
	return s
}

// alloc takes an SKB and a backing buffer of at least size+headroom
// bytes from the arena (nil: the global pools). The buffer is not
// zeroed and a jumbo buffer's zero tag is left as the previous owner
// set it; the exported constructors settle both.
func (a *Arena) alloc(size, headroom int) *SKB {
	var s *SKB
	if a != nil && len(a.skbs) > 0 {
		n := len(a.skbs)
		s = a.skbs[n-1]
		a.skbs[n-1] = nil
		a.skbs = a.skbs[:n-1]
		s.reissue()
	} else {
		s = getSKB()
		s.arena = a
	}
	total := size + headroom
	switch {
	case total <= pooledBufCap:
		if a != nil && len(a.bufs) > 0 {
			n := len(a.bufs)
			s.buf = a.bufs[n-1]
			a.bufs[n-1] = nil
			a.bufs = a.bufs[:n-1]
		} else {
			s.buf = bufPool.Get().(*[pooledBufCap]byte)
		}
		s.back = s.buf[:]
	case total <= jumboBufCap:
		if a != nil && len(a.jumbos) > 0 {
			n := len(a.jumbos)
			s.jumbo = a.jumbos[n-1]
			a.jumbos[n-1] = nil
			a.jumbos = a.jumbos[:n-1]
		} else {
			s.jumbo = jumboPool.Get().(*jumboBuf)
		}
		s.back = s.jumbo.b[:]
	default:
		s.back = make([]byte, total)
	}
	s.off = headroom
	s.Data = s.back[headroom : headroom+size]
	return s
}

// put recycles a freed SKB and its buffer into the arena (overflow
// spills to the global pools). Called from Free with s.arena == a.
// A jumbo buffer's zero tag travels with it.
func (a *Arena) put(s *SKB) {
	if s.buf != nil {
		if len(a.bufs) < arenaBufCap {
			a.bufs = append(a.bufs, s.buf)
		} else {
			bufPool.Put(s.buf)
		}
	}
	if s.jumbo != nil {
		if len(a.jumbos) < arenaJumboCap {
			a.jumbos = append(a.jumbos, s.jumbo)
		} else {
			jumboPool.Put(s.jumbo)
		}
	}
	aud, gen := s.aud, s.gen
	*s = SKB{}
	s.aud, s.gen, s.freed = aud, gen+1, true
	if len(a.skbs) < arenaSKBCap {
		s.arena = a
		a.skbs = append(a.skbs, s)
	} else {
		skbPool.Put(s)
	}
}

// Rehome moves the SKB's pool affinity to arena a (nil: the global
// pools), so the eventual Free recycles into the shard that ran it.
// Only call while the simulation is quiescent for this SKB — in
// practice, from a cluster barrier's cross-shard drain, where both the
// sending and receiving LPs are parked.
func (s *SKB) Rehome(a *Arena) { s.arena = a }
