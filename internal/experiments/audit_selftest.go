package experiments

import (
	"falcon/internal/audit"
	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/skb"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// Hidden audit selftests: each seeds one deliberate datapath defect and
// relies on the auditor to abort the run with the right attribution.
// They are the negative coverage for the audit subsystem and the
// concrete failures `falconsim -replay` reproduces — excluded from
// All() so -all runs stay green.

func init() {
	registerHidden("audit-leak", "Audit selftest: seeded SKB leak (must abort)", auditLeak)
	registerHidden("audit-double-free", "Audit selftest: seeded double-free (must abort)", auditDoubleFree)
	registerHidden("audit-stall", "Audit selftest: stalled NAPI/softirq core (must abort)", auditStall)
}

// auditSelftestBed is the single-flow bed with auditing always on
// (selftests are meaningless without it) under the selftest's own
// audit.Config.
func auditSelftestBed(opt Options, cfg audit.Config) *workload.Testbed {
	opt.Audit = false
	tb := opt.newBed(workload.TestbedConfig{
		LinkRate: 100 * devices.Gbps, Cores: 12, Containers: 1,
		RSSCores: []int{0}, RPSCores: []int{1},
		GRO: true, InnerGRO: true,
	})
	tb.EnableAudit(cfg)
	return tb
}

// auditLeak acquires one ledgered SKB mid-run and never frees it: the
// teardown leak check must abort naming site "selftest:leak".
func auditLeak(opt Options) []*stats.Table {
	tb := auditSelftestBed(opt, audit.Config{})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, singleFlowAppCore, 1)
	until := opt.warmup()
	f.SendAtRate(20_000, until)
	tb.E.At(opt.warmup()/2, func() {
		s := skb.NewTx(64, 0)
		s.Audit(tb.Audit, "selftest:leak")
		s.Stage("selftest:limbo")
	})
	tb.Run(until + 5*sim.Millisecond)
	finishAudit(tb, until+5*sim.Millisecond)
	return nil
}

// auditDoubleFree frees one ledgered SKB twice: the pool rejects the
// second free and the auditor must abort with kind "double-free".
func auditDoubleFree(opt Options) []*stats.Table {
	tb := auditSelftestBed(opt, audit.Config{})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, singleFlowAppCore, 1)
	until := opt.warmup()
	f.SendAtRate(20_000, until)
	tb.E.At(opt.warmup()/2, func() {
		s := skb.NewTx(64, 0)
		s.Audit(tb.Audit, "selftest:double-free")
		s.Stage("selftest:used")
		s.Free()
		s.Free() // the seeded defect
	})
	tb.Run(until + 5*sim.Millisecond)
	finishAudit(tb, until+5*sim.Millisecond)
	return nil
}

// auditStall wedges the RPS core mid-run and never revives it: packets
// pile up on its backlog with zero progress, and the watchdog must
// abort with the per-core state dump. WatchFrozen is on because the
// stall is injected through the same fault mechanism the chaos harness
// uses (which the watchdog exempts by default).
func auditStall(opt Options) []*stats.Table {
	tb := auditSelftestBed(opt, audit.Config{WatchFrozen: true})
	f := tb.NewUDPFlow(tb.ClientCtrs[0], tb.ServerCtrs[0].IP, 7000, 5001, 64, 2, singleFlowAppCore, 1)
	until := opt.warmup() + opt.window()
	f.SendAtRate(100_000, until)
	tb.E.At(opt.warmup(), func() {
		tb.Server.M.Core(1).SetStalled(true) // the seeded defect: never unstalled
	})
	tb.Run(until + 5*sim.Millisecond)
	finishAudit(tb, until+5*sim.Millisecond)
	return nil
}
