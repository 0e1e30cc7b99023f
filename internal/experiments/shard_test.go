package experiments

import "testing"

// renderShards runs an experiment the way the goldens were captured,
// but on a PDES cluster with the given shard count (0 = serial engine).
func renderShards(t testing.TB, id string, shards int, audit bool) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	out := ""
	for _, tbl := range e.Run(Options{Quick: true, Seed: 1, Shards: shards, Audit: audit}) {
		out += tbl.String() + "\n"
	}
	return out
}

// TestShardInvariance is the determinism contract of the PDES engine:
// every experiment prints byte-identical tables whether it runs on the
// serial engine or on a conservative multi-shard cluster, for every
// shard count. fig10 covers the steady UDP datapath (two hosts, two
// shards, one busy direction), abl-chaos covers fault injection with
// coordinator-side Apply/Revert events and RNG-heavy degraded paths,
// and mesh8 covers the 8-host topology where every shard carries
// cross-shard traffic in both directions. abl-tail covers the
// heavy-tailed open-loop generators: thousands of churning flows whose
// send schedule must be identical however the datapath is sharded.
// fig17 covers a colocated bed: the closed-loop web-serving app shares
// state across hosts, so both hosts sit on one shard of the cluster.
func TestShardInvariance(t *testing.T) {
	for _, id := range []string{"fig10", "abl-chaos", "mesh8", "abl-tail", "fig17"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			ref := renderShards(t, id, 0, false)
			for _, shards := range []int{1, 2, 8} {
				if got := renderShards(t, id, shards, false); got != ref {
					t.Errorf("shards=%d output diverges from serial\n--- serial ---\n%s\n--- shards=%d ---\n%s",
						shards, ref, shards, got)
				}
			}
		})
	}
}

// TestShardInvarianceWithAudit repeats the invariance check with the
// full audit harness attached: per-shard SKB ledgers, cross-shard
// record handoffs at barriers, and coordinator-driven invariant sweeps
// must not perturb a single simulated result either.
func TestShardInvarianceWithAudit(t *testing.T) {
	for _, id := range []string{"fig10", "abl-chaos", "abl-tail", "mesh8"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			ref := renderShards(t, id, 0, true)
			noAudit := renderShards(t, id, 0, false)
			if ref != noAudit {
				t.Fatal("audit harness changed serial output; shard comparison would be vacuous")
			}
			for _, shards := range []int{2, 8} {
				if got := renderShards(t, id, shards, true); got != ref {
					t.Errorf("shards=%d audited output diverges from serial\n--- serial ---\n%s\n--- shards=%d ---\n%s",
						shards, ref, shards, got)
				}
			}
		})
	}
}
