package experiments

import (
	"strconv"
	"testing"

	"falcon/internal/devices"
	"falcon/internal/sim"
	"falcon/internal/workload"
)

var quick = Options{Quick: true}

func TestRegistryComplete(t *testing.T) {
	// Every figure in DESIGN.md's experiment index must be registered.
	want := []string{
		"fig2a", "fig2b", "fig2c", "fig2d", "fig4", "fig5", "fig6",
		"fig9a", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19",
		"abl-grosplit", "abl-locality", "abl-stages", "abl-chaos",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Fatalf("registry has %d, want >= %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	// Smoke: every experiment runs in Quick mode and yields non-empty
	// tables. Heavier shape assertions live in the targeted tests below.
	if testing.Short() {
		t.Skip("slow")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(quick)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q empty", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("table %q row width %d != %d cols",
							tb.Title, len(row), len(tb.Columns))
					}
				}
			}
		})
	}
}

// TestRunOptionsReachEveryExperiment checks that the run options reach
// every bed: each experiment must hit a tiny event budget. The budget
// and the audit harness are applied by the same Options.newBed call, so
// the budget stands in for both.
func TestRunOptionsReachEveryExperiment(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			defer func() {
				if _, ok := recover().(*sim.BudgetExceeded); !ok {
					t.Fatal("ran without hitting Options.MaxEvents")
				}
			}()
			e.Run(Options{Quick: true, MaxEvents: 1000})
		})
	}
}

func TestUDPStressShape(t *testing.T) {
	// The core result: Con loses badly, Falcon recovers most of it.
	host := udpStress(workload.ModeHost, quick, 100*devices.Gbps, 16)
	con := udpStress(workload.ModeCon, quick, 100*devices.Gbps, 16)
	fal := udpStress(workload.ModeFalcon, quick, 100*devices.Gbps, 16)
	if con.PPS >= 0.8*host.PPS {
		t.Fatalf("overlay loss too small: con=%.0f host=%.0f", con.PPS, host.PPS)
	}
	if fal.PPS <= con.PPS*1.15 {
		t.Fatalf("falcon gain too small: falcon=%.0f con=%.0f", fal.PPS, con.PPS)
	}
	if fal.PPS < 0.7*host.PPS {
		t.Fatalf("falcon too far from host: falcon=%.0f host=%.0f", fal.PPS, host.PPS)
	}
}

func TestStress64KShape(t *testing.T) {
	// Fig 2a headline: ~half the throughput lost at 100G with 64K
	// messages; near-native at 10G.
	host := udpStress(workload.ModeHost, quick, 100*devices.Gbps, 65000)
	con := udpStress(workload.ModeCon, quick, 100*devices.Gbps, 65000)
	loss := 1 - con.PPS/host.PPS
	if loss < 0.35 || loss > 0.70 {
		t.Fatalf("100G 64K loss = %.2f, want ~0.5", loss)
	}
	host10 := udpStress(workload.ModeHost, quick, 10*devices.Gbps, 65000)
	con10 := udpStress(workload.ModeCon, quick, 10*devices.Gbps, 65000)
	if con10.PPS < 0.9*host10.PPS {
		t.Fatalf("10G 64K should be near-native: con=%.0f host=%.0f", con10.PPS, host10.PPS)
	}
}

func TestFixedRateUnderloadedDeliversAll(t *testing.T) {
	r := udpFixedRate(workload.ModeCon, quick, 100*devices.Gbps, 1024, 50_000)
	if r.NICDrops+r.BacklogDrops+r.SocketDrops > 0 {
		t.Fatalf("drops in underloaded run: %d/%d/%d",
			r.NICDrops, r.BacklogDrops, r.SocketDrops)
	}
	if r.PPS < 40_000 || r.PPS > 60_000 {
		t.Fatalf("pps = %.0f, want ~50k", r.PPS)
	}
}

func TestLatencyOrdering(t *testing.T) {
	// Overlay latency must exceed host latency underloaded.
	host := udpFixedRate(workload.ModeHost, quick, 100*devices.Gbps, 1024, 50_000)
	con := udpFixedRate(workload.ModeCon, quick, 100*devices.Gbps, 1024, 50_000)
	if con.Latency.Mean <= host.Latency.Mean {
		t.Fatalf("overlay latency (%.0f) not above host (%.0f)",
			con.Latency.Mean, host.Latency.Mean)
	}
}

func TestTCPBulkShape(t *testing.T) {
	host := tcpBulk(workload.ModeHost, quick, 100*devices.Gbps, 4096, 1, false)
	con := tcpBulk(workload.ModeCon, quick, 100*devices.Gbps, 4096, 1, false)
	if host.Gbps <= 0 || con.Gbps <= 0 {
		t.Fatalf("tcp bulk dead: host=%.2f con=%.2f", host.Gbps, con.Gbps)
	}
	if con.Gbps >= host.Gbps {
		t.Fatalf("overlay TCP should lose: host=%.2f con=%.2f", host.Gbps, con.Gbps)
	}
}

func TestSizeLabel(t *testing.T) {
	cases := map[int]string{16: "16B", 1024: "1K", 4096: "4K", 65000: "64K", 300: "300B"}
	for in, want := range cases {
		if got := sizeLabel(in); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestLinkName(t *testing.T) {
	if linkName(10*devices.Gbps) != "10G" || linkName(100*devices.Gbps) != "100G" {
		t.Fatal("link names wrong")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Fatal("default seed wrong")
	}
	o.Seed = 9
	if o.seed() != 9 {
		t.Fatal("explicit seed ignored")
	}
	if quick.window() >= (Options{}).window() {
		t.Fatal("quick window not shorter")
	}
}

func TestFormatters(t *testing.T) {
	if fKpps(1500) != "1.5" {
		t.Fatalf("fKpps = %q", fKpps(1500))
	}
	if fPct(0.5) != "50.0%" {
		t.Fatalf("fPct = %q", fPct(0.5))
	}
	if fRatio(2) != "2.00x" {
		t.Fatalf("fRatio = %q", fRatio(2))
	}
	if fUs(1500) != "1.5" {
		t.Fatalf("fUs = %q", fUs(1500))
	}
	if fGbps(1.234) != "1.23" {
		t.Fatalf("fGbps = %q", fGbps(1.234))
	}
	if _, err := strconv.ParseFloat(fKpps(123456), 64); err != nil {
		t.Fatal("fKpps not numeric")
	}
}
