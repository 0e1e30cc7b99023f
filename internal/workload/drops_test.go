package workload

import (
	"testing"

	"falcon/internal/audit"
	"falcon/internal/devices"
	"falcon/internal/faults"
	"falcon/internal/overlay"
	"falcon/internal/proto"
	"falcon/internal/reconfig"
	"falcon/internal/sim"
)

// auditBed is the two-host testbed the transmit-balance regressions
// run on.
func auditBed() *Testbed {
	return NewTestbed(TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 8, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true, Seed: 3,
	})
}

// floodAudited floods the server container at 200 Kpps until `until`
// with the full audit on, drains, and reports every audit violation as
// a test error.
func floodAudited(t *testing.T, tb *Testbed, until sim.Time) *UDPFlow {
	t.Helper()
	a := tb.EnableAudit(audit.Config{OnViolation: func(v *audit.Violation) {
		t.Errorf("audit violation: %v", v)
	}})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, 2, 1)
	f.SendAtRate(200_000, until)
	tb.Run(until)
	for i := 0; i < 10 && (a.LiveCount() > 0 || tb.Client.TxPending() > 0); i++ {
		until += 2 * sim.Millisecond
		tb.Run(until)
	}
	a.Final()
	return f
}

// TestCrashedSenderBalancesTxMsgs: sends a crashed client destroys
// before they become an SKB must land in a drop bucket the transmit
// balance sees. The client dies from 3ms to 5ms under the flood; every
// balance must hold through the outage and the drain.
func TestCrashedSenderBalancesTxMsgs(t *testing.T) {
	tb := auditBed()
	faults.NewInjector(tb.E).Install(faults.Single(
		3*sim.Millisecond, 2*sim.Millisecond, &faults.HostCrash{Host: tb.Client}))
	floodAudited(t, tb, 8*sim.Millisecond)
	if tb.Client.Crashed() {
		t.Fatal("client never rebooted")
	}
}

// TestPartitionedNegCacheBalancesTxMsgs: a client partitioned from the
// KV control plane serves stale flow entries for PartitionStaleBound
// after a KV mutation, then exhausts its retries and negative-caches
// the destination. Sends the negative cache suppresses are resolve
// drops, or the transmit balance breaks.
func TestPartitionedNegCacheBalancesTxMsgs(t *testing.T) {
	tb := auditBed()
	faults.NewInjector(tb.E).Install(faults.Single(
		2*sim.Millisecond, 10*sim.Millisecond, &faults.KVPartition{KV: tb.Net.KV, Host: tb.Client}))
	tb.E.At(3*sim.Millisecond, func() {
		tb.Net.KV.Put(proto.IP4(10, 99, 9, 9), overlay.EndpointInfo{HostIP: ServerIP})
	})
	floodAudited(t, tb, 14*sim.Millisecond)
	if tb.Client.NegCacheHits.Value() == 0 {
		t.Fatal("no send hit the negative cache; the test exercises nothing")
	}
}

// TestUnroutedFrameCounted: on a chain a–b–c with no a–c link, a frame
// from a toward c's container resolves and builds but has no link to
// leave on. It must still close the sender's books: every send is on
// the wire or in the drop census.
func TestUnroutedFrameCounted(t *testing.T) {
	e := sim.New(1)
	n := overlay.NewNetwork(e)
	var hosts []*overlay.Host
	for i, name := range []string{"a", "b", "c"} {
		hosts = append(hosts, n.AddHost(overlay.HostConfig{
			Name: name, IP: proto.IP4(192, 168, 3, byte(i+1)), Cores: 4,
			RSSCores: []int{0}, RPSCores: []int{1},
		}))
	}
	a, b, c := hosts[0], hosts[1], hosts[2]
	n.Connect(a, b, 10*devices.Gbps, sim.Microsecond)
	n.Connect(b, c, 10*devices.Gbps, sim.Microsecond)
	from := a.AddContainer("a-c1", proto.IP4(10, 50, 0, 1))
	to := c.AddContainer("c-c1", proto.IP4(10, 50, 0, 3))
	ok := true
	a.SendUDP(overlay.SendParams{
		From: from, SrcPort: 7000, DstIP: to.IP, DstPort: 5001, Payload: 64, Core: 2,
		Done: func(sent bool) { ok = sent },
	})
	e.RunUntil(sim.Millisecond)
	if ok {
		t.Fatal("send without a route reported success")
	}
	var wire uint64
	a.EachLink(func(_ proto.IPv4Addr, l *devices.Link) { wire += l.Sent.Value() })
	drops := reconfig.New(n, &reconfig.Schedule{}).Snapshot().Total()
	if sent := a.TxMsgs.Value(); sent != wire+drops+a.TxPending() {
		t.Fatalf("sender books open: sent=%d != wire=%d + drops=%d + pending=%d",
			sent, wire, drops, a.TxPending())
	}
}
