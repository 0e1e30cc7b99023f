package scenario

import (
	"fmt"
	"strings"
	"testing"

	"falcon/internal/audit"
	"falcon/internal/devices"
	"falcon/internal/overlay"
	"falcon/internal/reconfig"
	"falcon/internal/sim"
	"falcon/internal/stats"
	"falcon/internal/workload"
)

// TestDropTable bumps every drop reason's counter once, through the
// table alone, and requires each consumer derived from the table to see
// exactly that drop: the reconfiguration census, the matching side of
// the scenario accounting, and the audit balance that owns the reason —
// its own for reasons that free an SKB, the transmit balance otherwise.
func TestDropTable(t *testing.T) {
	for r := range overlay.NumDropReasons {
		t.Run(r.String(), func(t *testing.T) {
			tb := workload.NewTestbed(workload.TestbedConfig{
				LinkRate: 10 * devices.Gbps, Cores: 4, Containers: 1,
				RSSCores: []int{0}, RPSCores: []int{1}, Seed: 1,
			})
			a := tb.EnableAudit(audit.Config{OnViolation: func(*audit.Violation) {}})
			mgr := reconfig.New(tb.Net, &reconfig.Schedule{})
			tb.Run(2 * sim.Millisecond) // the first sweeps prime every balance

			snap := mgr.Snapshot().Total()
			tx, rx := dropCensus(tb)
			h := tb.Server
			if r.Side() == overlay.SideTx {
				h = tb.Client
			}
			bumped := false
			r.EachCounter(h, func(c *stats.Counter) {
				if !bumped {
					c.Inc()
					bumped = true
				}
			})
			if !bumped {
				t.Fatalf("no %s counter charged to %s", r, h.Name)
			}

			if d := mgr.Snapshot().Total() - snap; d != 1 {
				t.Errorf("reconfig census moved by %d, want 1", d)
			}
			tx2, rx2 := dropCensus(tb)
			moved := [2]uint64{tx2.Total() - tx.Total(), rx2.Total() - rx.Total()}
			var want [2]uint64
			want[r.Side()] = 1
			if moved != want {
				t.Errorf("accounting (tx, rx) moved by %v, want %v", moved, want)
			}

			balance := "tx-msgs"
			if len(r.Stages()) > 0 {
				balance = r.String()
			}
			broken := fmt.Sprintf("balance %q broken", balance)
			found := false
			for _, v := range a.Final() {
				found = found || strings.Contains(v.Detail, broken)
			}
			if !found {
				t.Errorf("audit did not report %s", broken)
			}
		})
	}
}
