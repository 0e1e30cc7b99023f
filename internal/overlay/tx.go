package overlay

import (
	"falcon/internal/costmodel"
	"falcon/internal/cpu"
	"falcon/internal/ipfrag"
	"falcon/internal/netdev"
	"falcon/internal/proto"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
)

// SendParams describes one message transmission.
type SendParams struct {
	// From is the sending container; nil sends over the host network.
	From    *Container
	SrcPort uint16
	DstIP   proto.IPv4Addr
	DstPort uint16
	// Payload is the message size in bytes.
	Payload int
	// Core is the core the sending task runs on.
	Core int
	// FlowID and Seq instrument delivery-order verification.
	FlowID, Seq uint64
	// Done, if non-nil, reports whether the frame made it onto the wire
	// (false: resolution failure or transmit-queue drop).
	Done func(ok bool)
	// FromSoftirq charges the transmit work in softirq context instead
	// of task context — how the kernel emits TCP ACKs from tcp_v4_rcv.
	FromSoftirq bool
}

// SendUDP transmits one UDP message through the full transmit path in
// task context: container stack → veth → bridge → vxlan_xmit
// encapsulation → pNIC, or the plain host stack for host networking.
func (h *Host) SendUDP(p SendParams) {
	h.sendL4(p, proto.ProtoUDP, proto.TCPHdr{})
}

// SendTCP transmits one TCP segment with the given header. Payload bytes
// are p.Payload; ports are taken from the header.
func (h *Host) SendTCP(p SendParams, hdr proto.TCPHdr) {
	h.sendL4(p, proto.ProtoTCP, hdr)
}

// txFlowKey identifies one transmit flow shape: everything that
// determines the frame bytes except the per-packet IP ID and TCP header.
type txFlowKey struct {
	from             *Container
	dstIP            proto.IPv4Addr
	srcPort, dstPort uint16
	ipProto          uint8
	payload          int
}

// txFlowEntry is one resolved flow's frame templates — the simulation
// analogue of an ONCache/flow-table entry that amortizes the per-packet
// vxlan_xmit work (FIB/neighbor lookup + header construction) across a
// flow. The inner template is the frame's headers (IP ID 0, zero TCP
// header) plus its payload length: each packet copies the headers into
// a small pooled buffer, carries the payload as the skb's unstored zero
// tail (skb.Arena.NewTxFrom) and patches only the ID (+ TCP header),
// which produces frames identical on the wire to a from-scratch build.
// Every frame is built from an entry. Cached entries revalidate against
// the KV store's version AND the network's configuration generation, so
// both endpoint moves and reconfigurations that never touch the KV
// (steering flips, topology membership) invalidate them. Sends resolved
// per packet — inside a KV fault window, or after a partition heals
// mid-retry — build a one-off entry that is never cached: reading the
// cache would skip the fault's RNG draws and writing it would let a
// fault-window resolution outlive the window.
type txFlowEntry struct {
	kvVersion uint64
	gen       uint64
	epoch     uint64   // host cacheEpoch at build (lazy ReconcileKV)
	born      uint64   // host purgeClock at build (lazy PurgeDeadHost)
	builtAt   sim.Time // when the entry was resolved (staleness bound)
	info      EndpointInfo
	sameHost  bool
	hostNet   bool
	hash      uint32
	inner     []byte // inner frame's L2-L4 headers (IP ID 0, TCP header zero)
	tail      int    // inner frame's payload length (the skb's zero tail)
	outer     []byte // outer VXLAN header template (cross-host only)
}

// txOp carries one transmit through its asynchronous charge chain,
// including any per-packet resolution it waits on. The continuations
// the chain needs (after the stack steps, after vxlan_xmit, after the
// NIC doorbell) are method values cached at pool construction, so a
// steady-state send costs zero closure allocations — the op itself is
// recycled once the frame is on the wire or dropped.
type txOp struct {
	h       *Host
	core    *cpu.Core
	ctx     stats.CPUContext
	p       SendParams
	ipProto uint8
	tcp     proto.TCPHdr // valid when ipProto is TCP
	s       *skb.SKB
	e       *txFlowEntry
	start   sim.Time // when the app handed us the payload (skb SendTime)

	afterStack func() // cached op.stackDone
	afterVXLAN func() // cached op.vxlanDone
	afterNIC   func() // cached op.nicDone (overlay wire-out)
	afterHost  func() // cached op.hostDone (host-network wire-out)

	next *txOp // host free list
}

func (h *Host) getTxOp() *txOp {
	op := h.txOps
	if op == nil {
		op = new(txOp)
		op.afterStack = op.stackDone
		op.afterVXLAN = op.vxlanDone
		op.afterNIC = op.nicDone
		op.afterHost = op.hostDone
	} else {
		h.txOps = op.next
		op.next = nil
	}
	return op
}

// finish releases the op back to the host's free list and reports the
// outcome. The op is released first: Done may immediately send another
// packet and legitimately reuse the same recycled op.
func (op *txOp) finish(ok bool) {
	h, done := op.h, op.p.Done
	op.h, op.core, op.s, op.e = nil, nil, nil, nil
	op.p = SendParams{}
	op.next = h.txOps
	h.txOps = op
	if done != nil {
		done(ok)
	}
}

// sendL4 is the shared transmit machinery. For TCP, tcp carries the
// prebuilt TCP header (ports in tcp override p's).
func (h *Host) sendL4(p SendParams, ipProto uint8, tcp proto.TCPHdr) {
	h.TxMsgs.Inc()
	if h.crashed {
		// The host is dead: the (schedule-driven) send is counted and
		// destroyed without charging work — dead silicon runs nothing.
		h.TxCrashDrops.Inc()
		if p.Done != nil {
			p.Done(false)
		}
		return
	}
	h.txPending++
	core := h.M.Core(p.Core)
	ctx := stats.CtxTask
	if p.FromSoftirq {
		ctx = stats.CtxSoftIRQ
	}
	op := h.getTxOp()
	op.h, op.core, op.ctx, op.p, op.ipProto, op.tcp = h, core, ctx, p, ipProto, tcp
	op.start = h.E.Now()
	// Fixed-size step buffer: appending to a 1-element literal reallocates
	// on every overlay send, and RunChain copies the steps anyway.
	var steps [3]netdev.Step
	steps[0] = netdev.Step{Fn: costmodel.FnTxStack, Bytes: p.Payload}
	n := 1
	if p.From != nil {
		steps[1] = netdev.Step{Fn: costmodel.FnVethXmit}
		steps[2] = netdev.Step{Fn: costmodel.FnBridge}
		n = 3
	}
	h.St.RunChain(core, ctx, steps[:n], op.afterStack)
}

// stackDone runs once the stack/veth/bridge costs are charged and picks
// how the destination resolves: per packet inside a KV fault window,
// through the partition-tolerant path, or through the flow cache.
func (op *txOp) stackDone() {
	h := op.h
	if h.crashed {
		// The host died while this message was inside the transmit path:
		// it terminates here, accounted, so Quiesced() can drain.
		h.TxCrashDrops.Inc()
		h.txPending--
		op.finish(false)
		return
	}
	if h.Net.KV.Fault() != nil {
		h.resolve(op.p, op.resolved)
		return
	}
	if h.Net.KV.Partitioned(h.IP) {
		h.sendPartitioned(op)
		return
	}
	op.transmit(h.txFlow(op.p, op.flowKey()))
}

// resolved transmits through a one-off entry once per-packet resolution
// reports; the entry is never cached.
func (op *txOp) resolved(info EndpointInfo, ok bool) {
	var e *txFlowEntry
	if ok {
		e = op.h.buildEntry(op.p, op.flowKey(), info)
	}
	op.transmit(e, ok)
}

// transmit drives e out, or counts the drop: resolved false means the
// destination could not be resolved, a nil entry with resolved true
// that the flow is unbuildable (payload exceeds the frame limit).
func (op *txOp) transmit(e *txFlowEntry, resolved bool) {
	h := op.h
	if e == nil {
		if resolved {
			h.TxBuildDrops.Inc()
		} else {
			h.TxResolveDrops.Inc()
		}
		h.txPending--
		op.finish(false)
		return
	}
	h.transmitEntry(op, e)
}

// transmitEntry builds the frame from a resolved flow entry in a pooled
// skb with VXLAN headroom and drives it out.
func (h *Host) transmitEntry(op *txOp, e *txFlowEntry) {
	core, ctx, p := op.core, op.ctx, op.p
	headroom := 0
	if !e.sameHost && !e.hostNet {
		headroom = proto.OverlayOverhead
	}
	s := h.Arena.NewTxFrom(e.inner, e.tail, headroom)
	if h.Audit != nil {
		s.Audit(h.Audit, "tx:fast")
	}
	h.txPending--
	if op.ipProto == proto.ProtoTCP {
		proto.PutTCP(s.Data[proto.EthLen+proto.IPv4Len:], op.tcp)
	}
	proto.PatchIPv4ID(s.Data, h.nextIPID())
	s.FlowID = p.FlowID
	s.Seq = p.Seq
	s.SendTime = op.start
	s.Hash = e.hash
	s.HashValid = true
	op.s, op.e = s, e
	if e.hostNet {
		// Host networking: straight out the NIC.
		core.Exec(ctx, costmodel.FnTxNIC, 0, op.afterHost)
		return
	}
	if e.sameHost {
		// Same-host container: the bridge forwards locally; the frame
		// enters the destination's veth backlog without encapsulation.
		s.WireTime = h.E.Now()
		op.finish(h.Rx.InjectLocal(nil, p.Core, s))
		return
	}
	// Cross-host: encapsulate in place (skb_push into the headroom) and
	// transmit.
	core.Exec(ctx, costmodel.FnVXLANXmit, s.Len(), op.afterVXLAN)
}

// hostDone wires out a host-network frame after the NIC doorbell.
func (op *txOp) hostDone() {
	h := op.h
	op.finish(h.sendWire(op.core, op.ctx, op.s, op.p.DstIP))
}

// vxlanDone encapsulates in place once vxlan_xmit is charged, then
// charges the NIC doorbell.
func (op *txOp) vxlanDone() {
	s, h := op.s, op.h
	s.Push(proto.OverlayOverhead)
	copy(s.Data[:proto.OverlayOverhead], op.e.outer)
	proto.PatchIPv4ID(s.Data, h.nextIPID())
	op.core.Exec(op.ctx, costmodel.FnTxNIC, 0, op.afterNIC)
}

// nicDone wires out an encapsulated frame after the NIC doorbell.
func (op *txOp) nicDone() {
	h := op.h
	op.finish(h.sendWire(op.core, op.ctx, op.s, op.e.info.HostIP))
}

// txCache returns core's TX flow table, creating it on first use. One
// map per simulated core: the sending core owns its table outright, so
// cores never contend on shared cache state.
func (h *Host) txCache(core int) map[txFlowKey]*txFlowEntry {
	t := h.flowCaches[core]
	if t == nil {
		t = make(map[txFlowKey]*txFlowEntry)
		h.flowCaches[core] = t
	}
	return t
}

// txLookup returns the entry under key in core's table if it survives
// lazy eviction: entries invalidated by ReconcileKV (stale epoch) or by
// a PurgeDeadHost declared after they were built are deleted here, on
// touch, instead of by scanning the tables at invalidation time.
// (kvVersion, gen) freshness is deliberately NOT checked — the
// partitioned path serves version-expired entries within its staleness
// bound.
func (h *Host) txLookup(core int, key txFlowKey) (*txFlowEntry, bool) {
	t := h.flowCaches[core]
	if t == nil {
		return nil, false
	}
	e, ok := t[key]
	if !ok {
		return nil, false
	}
	// For host-network entries info.HostIP is the addressed host itself,
	// so one condition covers both shapes the eager purge matched.
	if e.epoch != h.cacheEpoch || h.deadAt[e.info.HostIP] > e.born {
		delete(t, key)
		return nil, false
	}
	return e, true
}

// txEntries counts TX flow-cache entries across every core's table that
// survive lazy eviction (epoch and dead-host purge; version freshness
// is a revalidation concern, not eviction). Test and stats helper —
// physical map sizes include lazily dead entries.
func (h *Host) txEntries() int {
	n := 0
	for _, t := range h.flowCaches {
		for _, e := range t {
			if e.epoch == h.cacheEpoch && h.deadAt[e.info.HostIP] <= e.born {
				n++
			}
		}
	}
	return n
}

// flowKey returns the TX flow-cache key of the op's send.
func (op *txOp) flowKey() txFlowKey {
	p := op.p
	key := txFlowKey{from: p.From, dstIP: p.DstIP, ipProto: op.ipProto, payload: p.Payload,
		srcPort: p.SrcPort, dstPort: p.DstPort}
	if op.ipProto == proto.ProtoTCP {
		key.srcPort, key.dstPort = op.tcp.SrcPort, op.tcp.DstPort
	}
	return key
}

// txFlow returns the flow-cache entry for p under key, building and
// caching it on first use or after a KV mutation. resolved is false
// when the destination cannot be resolved; a nil entry with resolved
// true means the flow is resolvable but unbuildable.
func (h *Host) txFlow(p SendParams, key txFlowKey) (e *txFlowEntry, resolved bool) {
	if e, ok := h.txLookup(p.Core, key); ok && e.kvVersion == h.Net.KV.Version() && e.gen == h.Net.Generation() {
		return e, true
	}
	info, ok := h.lookup(p)
	if !ok {
		return nil, false
	}
	if e = h.buildEntry(p, key, info); e != nil {
		h.txCache(p.Core)[key] = e
	}
	return e, true
}

// buildEntry builds the frame templates for p's flow under key toward an
// already-resolved destination. It returns nil when the payload exceeds
// the frame limit. For container senders the inner MACs come from the
// KV entry; for host networking from the peer host.
func (h *Host) buildEntry(p SendParams, key txFlowKey, info EndpointInfo) *txFlowEntry {
	limit := MaxHostPayload
	srcMAC, srcIP, dstMAC := h.MAC, h.IP, info.HostMAC
	if p.From != nil {
		limit = MaxOverlayPayload
		srcMAC, srcIP, dstMAC = p.From.MAC, p.From.IP, info.ContainerMAC
	}
	if p.Payload > limit {
		return nil
	}
	e := &txFlowEntry{kvVersion: h.Net.KV.Version(), gen: h.Net.Generation(), builtAt: h.E.Now(),
		epoch: h.cacheEpoch, born: h.purgeClock, info: info,
		hostNet: p.From == nil, sameHost: p.From != nil && info.HostIP == h.IP}
	if key.ipProto == proto.ProtoTCP {
		e.inner = proto.TCPHeaders(srcMAC, dstMAC, srcIP, p.DstIP, proto.TCPHdr{}, 0, key.payload)
	} else {
		e.inner = proto.UDPHeaders(srcMAC, dstMAC, srcIP, p.DstIP, key.srcPort, key.dstPort, 0, key.payload)
	}
	e.tail = key.payload
	e.hash = skb.FlowKey{SrcIP: srcIP, DstIP: p.DstIP,
		SrcPort: key.srcPort, DstPort: key.dstPort, Proto: key.ipProto}.Hash()
	if !e.sameHost && !e.hostNet {
		entropy := uint16(49152 + (e.hash % 16384))
		e.outer = make([]byte, proto.OverlayOverhead)
		proto.PutEncapHeaders(e.outer, h.MAC, info.HostMAC, h.IP, info.HostIP,
			entropy, h.Net.VNI, 0, len(e.inner)+e.tail)
	}
	return e
}

// KV-resolution resilience parameters: transiently failed lookups retry
// with exponential backoff; definitive misses enter a negative cache so
// a burst toward an unknown IP does not hammer the control plane.
const (
	// kvRetryBase is the first retry's backoff; each further attempt
	// doubles it.
	kvRetryBase = 20 * sim.Microsecond
	// kvMaxRetries bounds resolution attempts per packet.
	kvMaxRetries = 4
	// NegCacheTTL is how long a definitive KV miss suppresses further
	// lookups of the same IP.
	NegCacheTTL = 2 * sim.Millisecond
	// PartitionStaleBound bounds how old a version-expired flow-cache
	// entry a control-plane-partitioned host may keep serving: within
	// the bound the host transmits on the last mapping it saw (counted
	// in StaleServes — the frame may land on a corpse, where it dies
	// accounted); beyond it the host treats the flow as unresolvable and
	// falls into retry/backoff until the partition heals.
	PartitionStaleBound = 5 * sim.Millisecond
)

// sendPartitioned is the split-brain transmit path, taken while this
// host is marked partitioned from the KV control plane. Fresh cache
// entries transmit normally; version-expired entries within
// PartitionStaleBound serve stale; misses cannot consult the KV and
// retry with the same deterministic backoff schedule as resolve,
// resolving for real only if the partition heals mid-retry. Cold path —
// closures are acceptable here, as in resolve.
func (h *Host) sendPartitioned(op *txOp) {
	p := op.p
	key := op.flowKey()
	if p.From == nil {
		// Host networking resolves through the local link map, not the
		// KV: the partition does not apply.
		op.transmit(h.txFlow(p, key))
		return
	}
	if e, ok := h.txLookup(p.Core, key); ok {
		fresh := e.kvVersion == h.Net.KV.Version() && e.gen == h.Net.Generation()
		if fresh || h.E.Now()-e.builtAt <= PartitionStaleBound {
			if !fresh {
				h.StaleServes.Inc()
			}
			h.transmitEntry(op, e)
			return
		}
		delete(h.flowCaches[p.Core], key)
	}
	if h.negCached(p.DstIP) {
		op.transmit(nil, false)
		return
	}
	attempt := 0
	var try func()
	try = func() {
		if h.crashed {
			h.TxCrashDrops.Inc()
			h.txPending--
			op.finish(false)
			return
		}
		if !h.Net.KV.Partitioned(h.IP) {
			// Healed mid-retry: resolve for real, per packet (the caches
			// were reconciled on heal).
			h.resolve(p, op.resolved)
			return
		}
		if attempt >= kvMaxRetries {
			h.negCachePut(p.DstIP)
			op.transmit(nil, false)
			return
		}
		backoff := kvRetryBase << attempt
		attempt++
		h.KVRetries.Inc()
		h.E.After(backoff, try)
	}
	try()
}

// negEntry is one negative-cache record: a definitive KV miss suppresses
// lookups of the same IP until the TTL expires OR the KV store mutates.
// The version pin matters during reconfiguration: a miss recorded while
// a container is in transit between hosts must not outlive the Put that
// lands it on its new host, or the sender would keep blackholing traffic
// for up to a full TTL after the mapping recovered. The epoch pin makes
// ReconcileKV's O(1) bump cover this cache too (heals don't always move
// the KV version).
type negEntry struct {
	until     sim.Time
	kvVersion uint64
	epoch     uint64
}

// negCached reports whether a live negative-cache record suppresses
// lookups of ip, counting the hit; an expired or invalidated record is
// deleted.
func (h *Host) negCached(ip proto.IPv4Addr) bool {
	ne, ok := h.negCache[ip]
	if !ok {
		return false
	}
	if ne.epoch == h.cacheEpoch && h.E.Now() < ne.until && ne.kvVersion == h.Net.KV.Version() {
		h.NegCacheHits.Inc()
		return true
	}
	delete(h.negCache, ip)
	return false
}

// negCachePut records a definitive miss of ip.
func (h *Host) negCachePut(ip proto.IPv4Addr) {
	h.negCache[ip] = negEntry{until: h.E.Now() + NegCacheTTL, kvVersion: h.Net.KV.Version(), epoch: h.cacheEpoch}
}

// lookup resolves p's destination synchronously: the peer host's MAC
// from the link map for host networking, the KV entry for containers.
func (h *Host) lookup(p SendParams) (EndpointInfo, bool) {
	if p.From == nil {
		peer := h.Net.hostByIP(p.DstIP)
		if peer == nil {
			return EndpointInfo{}, false
		}
		return EndpointInfo{HostIP: p.DstIP, HostMAC: peer.MAC}, true
	}
	info, err := h.Net.KV.Get(p.DstIP)
	return info, err == nil
}

// resolve produces the EndpointInfo for p's destination and calls cont
// exactly once. Without a KV lookup fault (and always for host
// networking) it is synchronous: cont runs inline, zero extra simulation
// events. With one installed, container resolutions pay the injected
// latency, retry transient failures with exponential backoff, and
// negative-cache definitive misses instead of erroring straight out.
func (h *Host) resolve(p SendParams, cont func(EndpointInfo, bool)) {
	flt := h.Net.KV.Fault()
	if p.From == nil || flt == nil {
		cont(h.lookup(p))
		return
	}
	if h.negCached(p.DstIP) {
		cont(EndpointInfo{}, false)
		return
	}
	attempt := 0
	var try func()
	try = func() {
		delay, fail := flt.Lookup(h.IP, p.DstIP)
		after := func() {
			if fail {
				if attempt >= kvMaxRetries {
					cont(EndpointInfo{}, false)
					return
				}
				backoff := kvRetryBase << attempt
				attempt++
				h.KVRetries.Inc()
				h.E.After(backoff, try)
				return
			}
			info, err := h.Net.KV.Get(p.DstIP)
			if err != nil {
				h.negCachePut(p.DstIP)
			}
			cont(info, err == nil)
		}
		if delay > 0 {
			h.E.After(delay, after)
		} else {
			after()
		}
	}
	try()
}

// MaxOverlayPayload is the largest L4 payload a container can send in
// one frame: IPv4's 16-bit total length must also fit the VXLAN
// encapsulation overhead. (The testbed models jumbo/GSO frames rather
// than IP fragmentation, so "64 KB" experiments use payloads under this
// cap; see DESIGN.md.)
const MaxOverlayPayload = 65535 - proto.IPv4Len - proto.UDPLen - proto.OverlayOverhead

// MaxHostPayload is the host-network equivalent.
const MaxHostPayload = 65535 - proto.IPv4Len - proto.UDPLen

// sendWire puts the frame on the link toward dstHostIP, fragmenting to
// the link MTU when one is configured. Fragments inherit the skb's flow
// identity; they pay per-fragment NIC transmit cost.
func (h *Host) sendWire(core *cpu.Core, ctx stats.CPUContext, s *skb.SKB, dstHostIP proto.IPv4Addr) bool {
	l := h.links[dstHostIP]
	if l == nil {
		h.TxEmitDrops.Inc()
		s.Stage("drop:tx-route")
		s.Free()
		return false
	}
	if l.MTU <= 0 {
		return l.Send(s)
	}
	parts, err := ipfrag.Fragment(s.Linear(), l.MTU)
	if err != nil {
		h.TxEmitDrops.Inc()
		s.Stage("drop:tx-frag")
		s.Free()
		return false
	}
	if len(parts) > 1 {
		// The first fragment's doorbell was already charged; the rest
		// cost one FnTxNIC each.
		cost := h.M.Model.Cost(costmodel.FnTxNIC, 0) * sim.Time(len(parts)-1)
		core.Submit(ctx, costmodel.FnTxNIC, cost, nil)
	}
	ok := true
	for i, part := range parts {
		fs := s
		if i > 0 || len(parts) > 1 {
			fs = skb.New(part)
			if h.Audit != nil {
				fs.Audit(h.Audit, "tx:frag")
			}
			fs.FlowID = s.FlowID
			fs.Seq = s.Seq
			fs.SendTime = s.SendTime
			_ = fs.SetFlowHash()
		}
		if !l.Send(fs) {
			ok = false
		}
	}
	if len(parts) > 1 {
		// Fragment copies are on the wire; the original frame is done.
		s.Stage("tx:fragmented")
		s.Free()
	}
	return ok
}

func (h *Host) nextIPID() uint16 {
	h.txSeq++
	return h.txSeq
}
