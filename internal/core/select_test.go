package core_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/cyclelevel"
	"simany/internal/drift"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// TestSchedulerModeSelection: the policy's capabilities alone select the
// engine path. ShardLocalPolicy picks the indexed scheduler and admits
// the sharded engine; every kernel evaluates idle effective times lazily
// from the policy's IdleRelay. Every bundled policy and the scan wrapper
// are covered.
func TestSchedulerModeSelection(t *testing.T) {
	sp := core.Spatial{T: core.DefaultT}
	for _, tc := range []struct {
		name    string
		policy  core.Policy
		sched   string
		relay   vtime.Time
		sharded bool
	}{
		{"spatial", sp, "index", core.DefaultT, true},
		{"spatial-T0", core.Spatial{}, "index", 0, true},
		{"unbounded", drift.Unbounded{}, "index", vtime.Inf, true},
		{"quantum", drift.GlobalQuantum{Q: core.DefaultT}, "scan", vtime.Inf, false},
		{"slack", drift.BoundedSlack{W: core.DefaultT}, "scan", vtime.Inf, false},
		{"laxp2p", drift.LaxP2P{Slack: core.DefaultT}, "scan", vtime.Inf, false},
		{"lockstep", drift.Lockstep{}, "scan", vtime.Inf, false},
		{"cyclelevel", cyclelevel.Lockstep{}, "scan", vtime.Inf, false},
		{"wrapper-scan-lazy", core.ScanLazy{P: sp}, "scan", core.DefaultT, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := core.New(core.Config{Topo: topology.Mesh(16), Policy: tc.policy, Seed: 1, Shards: 4})
			if got := k.Scheduler(); got != tc.sched {
				t.Errorf("Scheduler() = %q, want %q", got, tc.sched)
			}
			if got := tc.policy.IdleRelay(); got != tc.relay {
				t.Errorf("IdleRelay() = %v, want %v", got, tc.relay)
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
	if k.Scheduler() != "index" {
		t.Errorf("spatial T=100 resolves to %s, want index", k.Scheduler())
	}
}

// negativeRelay is a policy whose idle cores would relay by a negative
// increment, which has no fixpoint.
type negativeRelay struct{}

func (negativeRelay) Name() string                  { return "negative-relay" }
func (negativeRelay) Horizon(*core.Core) vtime.Time { return vtime.Inf }
func (negativeRelay) IdleRelay() vtime.Time         { return -core.DefaultT }

func TestNegativeRelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("core.New accepted a negative idle relay")
		}
	}()
	core.New(core.Config{Topo: topology.Mesh(4), Policy: negativeRelay{}, Seed: 1})
}

// TestRelayInfIdleCoresNeverConstrain: under every bundled policy whose
// idle cores relay Inf (the drift-comparison schemes and the cycle-level
// lockstep), every idle core advertises Inf at every scheduling decision,
// on the sequential engine and, for the shard-local ones, the sharded
// engine too.
func TestRelayInfIdleCoresNeverConstrain(t *testing.T) {
	for _, pol := range []core.Policy{
		drift.Unbounded{},
		drift.GlobalQuantum{Q: core.DefaultT},
		drift.BoundedSlack{W: core.DefaultT},
		drift.LaxP2P{Slack: core.DefaultT},
		drift.Lockstep{},
		cyclelevel.Lockstep{},
	} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", pol.Name(), shards), func(t *testing.T) {
				if pol.IdleRelay() != vtime.Inf {
					t.Fatalf("IdleRelay() = %v, want Inf", pol.IdleRelay())
				}
				k := core.New(core.Config{Topo: topology.Mesh(25), Policy: pol, Seed: 5, Shards: shards, Workers: 2})
				var checked, finite atomic.Int64
				core.WatchIdle(k, func(c *core.Core) {
					checked.Add(1)
					if c.Eff() != vtime.Inf {
						finite.Add(1)
					}
				})
				core.EquivWorkload(k, 5, 20)
				if _, err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if checked.Load() == 0 {
					t.Fatal("no idle core observed at any pick")
				}
				if n := finite.Load(); n > 0 {
					t.Fatalf("%d of %d idle-core observations advertised a finite time", n, checked.Load())
				}
			})
		}
	}
}
