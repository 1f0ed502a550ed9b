package core_test

import (
	"testing"

	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/cyclelevel"
	"simany/internal/drift"
	"simany/internal/topology"
)

// TestSchedulerModeSelection: the policy's capabilities alone select the
// engine paths. ShardLocalPolicy picks the indexed scheduler and admits
// the sharded engine; IdleRelayPolicy with a positive delta picks lazy
// effective times. Every bundled policy and the three test wrappers are
// covered.
func TestSchedulerModeSelection(t *testing.T) {
	sp := core.Spatial{T: core.DefaultT}
	for _, tc := range []struct {
		name       string
		policy     core.Policy
		sched, eff string
		sharded    bool
	}{
		{"spatial", sp, "index", "lazy", true},
		{"spatial-T0", core.Spatial{}, "index", "eager", true},
		{"unbounded", drift.Unbounded{}, "index", "eager", true},
		{"quantum", drift.GlobalQuantum{Q: core.DefaultT}, "scan", "eager", false},
		{"slack", drift.BoundedSlack{W: core.DefaultT}, "scan", "eager", false},
		{"laxp2p", drift.LaxP2P{Slack: core.DefaultT}, "scan", "eager", false},
		{"lockstep", drift.Lockstep{}, "scan", "eager", false},
		{"cyclelevel", cyclelevel.Lockstep{}, "scan", "eager", false},
		{"wrapper-index-eager", core.IndexEager{P: sp}, "index", "eager", true},
		{"wrapper-scan-eager", core.ScanEager{P: sp}, "scan", "eager", false},
		{"wrapper-scan-lazy", core.ScanLazy{P: sp}, "scan", "lazy", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := core.New(core.Config{Topo: topology.Mesh(16), Policy: tc.policy, Seed: 1, Shards: 4})
			if got := k.Scheduler(); got != tc.sched {
				t.Errorf("Scheduler() = %q, want %q", got, tc.sched)
			}
			if got := k.EffScheme(); got != tc.eff {
				t.Errorf("EffScheme() = %q, want %q", got, tc.eff)
			}
			_, shardLocal := tc.policy.(core.ShardLocalPolicy)
			if k.Sharded() != tc.sharded || tc.sharded != shardLocal {
				t.Errorf("Shards: 4 runs sharded = %v, want %v (ShardLocalPolicy: %v)", k.Sharded(), tc.sharded, shardLocal)
			}
		})
	}
	// The reference machine every simbench workload runs: spatial, T=100.
	k, _, err := config.Default(16).Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.Scheduler() != "index" || k.EffScheme() != "lazy" {
		t.Errorf("spatial T=100 resolves to %s/%s, want index/lazy", k.Scheduler(), k.EffScheme())
	}
}
