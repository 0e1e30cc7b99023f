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
	skbs []*SKB
	bufs []*[bufCap]byte
}

// Arena free-list caps: enough to cover a host's steady-state in-flight
// window (ring + backlog + GRO holds) without stranding memory.
const (
	arenaSKBCap = 512
	arenaBufCap = 512
)

// NewArena returns an empty arena. It fills lazily from the global
// pools as traffic flows.
func NewArena() *Arena { return &Arena{} }

// NewTx is Arena-affine NewTx: the SKB and its backing buffer come from
// (and will recycle into) this arena. A nil arena uses the global
// pools.
func (a *Arena) NewTx(size, headroom int) *SKB {
	return a.alloc(size, headroom)
}

// NewTxFrom builds a paged frame from a template: Data is a copy of the
// stored headers hdr, with headroom bytes of room in front of it, and
// Tail is tail — the payload length, whose zero bytes are never
// stored. Callers may patch the copied headers in place.
func (a *Arena) NewTxFrom(hdr []byte, tail, headroom int) *SKB {
	s := a.alloc(len(hdr), headroom)
	copy(s.Data, hdr)
	s.Tail = tail
	return s
}

// alloc takes an SKB and a backing buffer of at least size+headroom
// bytes from the arena (nil: the global pools). The buffer is not
// zeroed.
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
	case total > bufCap:
		s.back = make([]byte, total)
	case a != nil && len(a.bufs) > 0:
		n := len(a.bufs)
		s.buf = a.bufs[n-1]
		a.bufs[n-1] = nil
		a.bufs = a.bufs[:n-1]
		s.back = s.buf[:]
	default:
		s.buf = bufPool.Get().(*[bufCap]byte)
		s.back = s.buf[:]
	}
	s.off = headroom
	s.Data = s.back[headroom : headroom+size]
	return s
}

// put recycles a freed SKB and its buffer into the arena (overflow
// spills to the global pools). Called from Free with s.arena == a.
func (a *Arena) put(s *SKB) {
	if s.buf != nil {
		if len(a.bufs) < arenaBufCap {
			a.bufs = append(a.bufs, s.buf)
		} else {
			bufPool.Put(s.buf)
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
