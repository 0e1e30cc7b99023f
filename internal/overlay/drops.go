package overlay

import (
	"fmt"
	"strings"

	"falcon/internal/devices"
	"falcon/internal/stats"
)

// DropReason names one bucket of the host-datapath drop census. The
// table below is the only list of drop buckets: the reconfiguration
// census, the audit balances, the scenario accounting and the audit
// dumps all loop over it, so a new reason is one row plus its counter.
type DropReason uint8

// Drop reasons, in census order.
const (
	DropResolve  DropReason = iota // destination unresolvable
	DropBuild                      // resolved, but no frame can be built
	DropTxCrash                    // send on a crashed host, before any SKB
	DropTxEmit                     // built frame never reached a link
	DropNIC                        // NIC ring overflow or malformed frame
	DropBacklog                    // softirq backlog overflow
	DropPath                       // rx-path discard (decap, bridge, reassembly)
	DropL4                         // unparsable frame or no bound endpoint
	DropLinkLost                   // lost on the wire
	DropLinkTxq                    // link transmit-queue overflow
	DropCrash                      // SKB destroyed by a host crash
	NumDropReasons
)

// DropSide is the side of the wire a drop sits on. Sender-side drops
// balance against messages sent (sent = wire + sender drops),
// receiver-side drops against frames on the wire (wire = delivered +
// socket drops + receiver drops). A link reason is charged to the host
// on its side — the sender's egress links, the receiver's ingress
// links — so summing a reason over every host counts each link once.
type DropSide uint8

// Drop sides.
const (
	SideTx DropSide = iota
	SideRx
)

// dropRow reads a reason's counter off the host (host) or off each link
// charged to it (link). stages are the ledger stages the drop frees its
// SKB at; empty when it strikes before any SKB exists.
type dropRow struct {
	name   string
	side   DropSide
	stages []string
	host   func(h *Host) *stats.Counter
	link   func(l *devices.Link) *stats.Counter
}

var dropTable = [NumDropReasons]dropRow{
	DropResolve: {name: "resolve", side: SideTx, host: func(h *Host) *stats.Counter { return &h.TxResolveDrops }},
	DropBuild:   {name: "build", side: SideTx, host: func(h *Host) *stats.Counter { return &h.TxBuildDrops }},
	DropTxCrash: {name: "tx-crash", side: SideTx, host: func(h *Host) *stats.Counter { return &h.TxCrashDrops }},
	DropTxEmit: {name: "tx-emit", side: SideTx, stages: []string{"drop:tx-route", "drop:tx-frag"},
		host: func(h *Host) *stats.Counter { return &h.TxEmitDrops }},
	DropNIC: {name: "nic", side: SideRx, stages: []string{"drop:nic-ring", "drop:nic-frame"},
		host: func(h *Host) *stats.Counter { return &h.NIC.Drops }},
	DropBacklog: {name: "backlog", side: SideRx, stages: []string{"drop:backlog"},
		host: func(h *Host) *stats.Counter { return &h.St.Drops }},
	DropPath: {name: "path", side: SideRx, stages: []string{"drop:decap", "drop:bridge", "drop:fdb", "drop:reasm"},
		host: func(h *Host) *stats.Counter { return &h.Rx.PathDrops }},
	DropL4: {name: "l4", side: SideRx, stages: []string{"drop:l4-frame", "drop:l4-unbound"},
		host: func(h *Host) *stats.Counter { return &h.L4Drops }},
	DropLinkLost: {name: "link-lost", side: SideRx, stages: []string{"drop:link-loss"},
		link: func(l *devices.Link) *stats.Counter { return &l.Lost }},
	DropLinkTxq: {name: "link-txq", side: SideTx, stages: []string{"drop:link-txq"},
		link: func(l *devices.Link) *stats.Counter { return &l.Dropped }},
	DropCrash: {name: "crash", side: SideRx, stages: []string{"drop:nic-down", "drop:stack-down", "drop:host-crash"},
		host: func(h *Host) *stats.Counter { return &h.CrashDrops }},
}

// String returns the reason's census name.
func (r DropReason) String() string { return dropTable[r].name }

// Side reports which side of the wire the reason sits on.
func (r DropReason) Side() DropSide { return dropTable[r].side }

// Stages returns the ledger stages a drop of this reason frees its SKB
// at; nil when it strikes before any SKB exists.
func (r DropReason) Stages() []string { return dropTable[r].stages }

// EachCounter yields every counter of reason r charged to h.
func (r DropReason) EachCounter(h *Host, yield func(c *stats.Counter)) {
	row := &dropTable[r]
	switch {
	case row.host != nil:
		yield(row.host(h))
	case row.side == SideTx:
		for _, l := range h.links {
			yield(row.link(l))
		}
	default:
		for _, p := range h.Net.hosts {
			if l := p.links[h.IP]; l != nil {
				yield(row.link(l))
			}
		}
	}
}

// Count sums reason r's counters charged to h.
func (r DropReason) Count(h *Host) (n uint64) {
	r.EachCounter(h, func(c *stats.Counter) { n += c.Value() })
	return n
}

// DropCensus is a drop count per reason.
type DropCensus [NumDropReasons]uint64

// Add adds every reason's count charged to h.
func (d *DropCensus) Add(h *Host) {
	for r := range NumDropReasons {
		d[r] += r.Count(h)
	}
}

// Total sums every reason.
func (d DropCensus) Total() (n uint64) {
	for _, v := range d {
		n += v
	}
	return n
}

// Sub returns the per-reason difference d - prev.
func (d DropCensus) Sub(prev DropCensus) DropCensus {
	for r := range d {
		d[r] -= prev[r]
	}
	return d
}

// String renders every reason as name=count.
func (d DropCensus) String() string {
	parts := make([]string, len(d))
	for r, v := range d {
		parts[r] = fmt.Sprintf("%s=%d", DropReason(r), v)
	}
	return strings.Join(parts, " ")
}
