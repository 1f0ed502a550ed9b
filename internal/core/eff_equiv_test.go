package core

import (
	"fmt"
	"reflect"
	"testing"

	"simany/internal/topology"
)

// Effective-time equivalence property suite (docs/effective-time.md):
// lazy idle-region evaluation must be invisible in the results. The same
// randomized workloads as the scheduler suite run once under refSpatial,
// whose horizons read a from-scratch reference fixpoint of the relay rule
// (oracle_test.go), and once under Spatial with lazy evaluation, and the
// exact per-domain (core, key) pick sequences — which consume effective
// times through every stalled core's horizon — must match, along with
// the Results. The lazy runs also carry the pick oracle, which recomputes
// the reference fixpoint at every decision and compares every stalled
// core's lazily reconstructed neighborhood minimum against it. CI runs
// this file under the race detector.
//
// Both dense soups (more tasks than cores, constant region churn) and
// sparse ones (a handful of tasks on a big machine, the regime the lazy
// scheme exists for) are covered: sparse workloads exercise region
// split/merge around a small busy frontier, dense ones exercise wake/sleep
// flips and memo invalidation under load. The sharded engines additionally
// exercise frozen cross-shard proxies as BFS anchors and the barrier-time
// memo reseeding.

// runEffEquiv executes the shared randomized workload under policy pol
// and returns the per-domain pick sequences and the Result; with check
// set, the pick oracle verifies every decision.
func runEffEquiv(t *testing.T, topo *topology.Topology, shards, workers, tasks int, seed int64, pol Policy, check bool) ([][]pickRec, Result) {
	t.Helper()
	k := New(Config{
		Topo:    topo,
		Policy:  pol,
		Seed:    seed,
		Shards:  shards,
		Workers: workers,
	})
	o := watchPicks(k, check)
	equivWorkload(k, seed, tasks)
	res, err := k.Run()
	if err != nil {
		t.Fatalf("policy %T shards=%d: %v", pol, shards, err)
	}
	if err := o.err(); err != nil {
		t.Fatal(err)
	}
	if check && o.checked() == 0 {
		t.Fatal("the pick oracle checked no decision")
	}
	return o.picks, res
}

func chipletEquivTopo() *topology.Topology {
	topo, err := topology.ParseSpec("chiplet:3x3,2x2")
	if err != nil {
		panic(err)
	}
	return topo
}

func TestEffEquivalenceRandom(t *testing.T) {
	topos := []struct {
		name string
		topo func() *topology.Topology
	}{
		{"mesh25", func() *topology.Topology { return topology.Mesh(25) }},
		{"chiplet36", chipletEquivTopo},
	}
	engines := []struct {
		name            string
		shards, workers int
	}{
		{"seq", 1, 1},
		{"sharded4x3", 4, 3},
	}
	loads := []struct {
		name  string
		tasks func(cores int) int
	}{
		// Dense: every region transition under constant churn. Sparse: a
		// tiny busy frontier in a mostly idle machine, where a pick stalls
		// far more often than it completes — the lazy scheme's home turf.
		{"dense", func(cores int) int { return 3 * cores / 2 }},
		{"sparse", func(cores int) int { return 3 }},
	}
	for _, tc := range topos {
		for _, eng := range engines {
			for _, load := range loads {
				for _, seed := range []int64{2, 11} {
					name := fmt.Sprintf("%s/%s/%s/seed%d", tc.name, eng.name, load.name, seed)
					t.Run(name, func(t *testing.T) {
						topo := tc.topo()
						tasks := load.tasks(topo.N())
						ref := newRefSpatial(spatialT, topo.N(), eng.shards > 1)
						refPicks, refRes := runEffEquiv(t, topo, eng.shards, eng.workers, tasks, seed, ref, false)
						total := 0
						for _, p := range refPicks {
							total += len(p)
						}
						if total < tasks {
							t.Fatalf("only %d scheduling decisions recorded, want >= %d", total, tasks)
						}
						lazyPicks, lazyRes := runEffEquiv(t, tc.topo(), eng.shards, eng.workers, tasks, seed, spatialT, true)
						if !reflect.DeepEqual(lazyRes, refRes) {
							t.Errorf("Result diverged:\n  lazy      %+v\n  reference %+v", lazyRes, refRes)
						}
						samePicks(t, "lazy", lazyPicks, refPicks)
					})
				}
			}
		}
	}
}

// TestEffEquivalenceScanSched pins lazy evaluation under the reference
// scan scheduler (no runq, no stall heap — scanRunnable pulls horizons
// through the lazy neighborhood minimum): it must match the scan run of
// refSpatial, whose horizons read the reference fixpoint, pick for pick.
func TestEffEquivalenceScanSched(t *testing.T) {
	run := func(pol Policy) ([][]pickRec, Result) {
		k := New(Config{Topo: topology.Mesh(16), Policy: pol, Seed: 3})
		o := watchPicks(k, true)
		equivWorkload(k, 3, 24)
		res, err := k.Run()
		if err != nil {
			t.Fatalf("policy %T: %v", pol, err)
		}
		if err := o.err(); err != nil {
			t.Fatal(err)
		}
		if got := k.Scheduler(); got != "scan" {
			t.Fatalf("policy %T: scheduler %q, want scan", pol, got)
		}
		return o.picks, res
	}
	refPicks, refRes := run(newRefSpatial(spatialT, 16, false))
	lazyPicks, lazyRes := run(ScanLazy{spatialT})
	if !reflect.DeepEqual(lazyRes, refRes) {
		t.Errorf("Result diverged:\n  lazy      %+v\n  reference %+v", lazyRes, refRes)
	}
	if !reflect.DeepEqual(lazyPicks, refPicks) {
		t.Fatalf("pick sequences diverged under the scan scheduler")
	}
}

// TestEffEquivalenceValidated reruns one seed per engine with a
// ValidatingTracer under lazy evaluation, so every trace event checks the
// busy-frontier partition, the pruning floors, and every fresh memo
// against an independently recomputed relay fixpoint (Kernel.Validate)
// during a live randomized run.
func TestEffEquivalenceValidated(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			k := New(Config{
				Topo:    topology.Mesh(16),
				Policy:  spatialT,
				Seed:    9,
				Shards:  shards,
				Workers: 2,
			})
			k.SetTracer(&ValidatingTracer{K: k, Interval: 1})
			equivWorkload(k, 9, 24)
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpatialZeroT runs Spatial{T: 0}, the zero relay increment: an idle
// core advertises exactly the minimum of its neighbors' effective times.
// Maintaining those shadows by pushing changes through idle regions
// deadlocked here, because with T = 0 a stale idle neighbor holds an idle
// shadow down and a push from the other side never raises it; the single
// relay rule evaluates the fixpoint from the busy frontier instead. Every
// run must finish, with every event validated and every pick checked
// against the reference fixpoint.
func TestSpatialZeroT(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, seed := range []int64{2, 11} {
			for _, tasks := range []int{3, 37} {
				name := fmt.Sprintf("shards%d/seed%d/tasks%d", shards, seed, tasks)
				t.Run(name, func(t *testing.T) {
					k := New(Config{
						Topo:    topology.Mesh(25),
						Policy:  Spatial{},
						Seed:    seed,
						Shards:  shards,
						Workers: 2,
					})
					o := watchPicks(k, true)
					k.SetTracer(&ValidatingTracer{K: k, Interval: 1})
					equivWorkload(k, seed, tasks)
					if _, err := k.Run(); err != nil {
						t.Fatal(err)
					}
					if err := o.err(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
