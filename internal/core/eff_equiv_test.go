package core

import (
	"fmt"
	"reflect"
	"testing"

	"simany/internal/topology"
)

// Effective-time equivalence property suite (docs/effective-time.md):
// lazy idle-region evaluation must be invisible in the results. The same
// randomized workloads as the scheduler suite run once with the eager
// propagation flood (the IndexEager wrapper) and once with lazy
// evaluation, and the exact per-domain (core, key) pick sequences — which
// consume effective times through every stalled core's horizon — must
// match, along with the Results. The lazy runs also carry the pick oracle
// (oracle_test.go), which recomputes the reference fixpoint at every
// decision and compares every stalled core's lazily reconstructed
// neighborhood minimum against it. CI runs this file under the race
// detector.
//
// Both dense soups (more tasks than cores, constant region churn) and
// sparse ones (a handful of tasks on a big machine, the regime the lazy
// scheme exists for) are covered: sparse workloads exercise region
// split/merge around a small busy frontier, dense ones exercise wake/sleep
// flips and memo invalidation under load. The sharded engines additionally
// exercise frozen cross-shard proxies as BFS anchors and the barrier-time
// memo reseeding.

// runEffEquiv executes the shared randomized workload under policy pol
// and returns the per-domain pick sequences, the Result, and the kernel's
// resolved evaluation scheme; with check set, the pick oracle verifies
// every decision.
func runEffEquiv(t *testing.T, topo *topology.Topology, shards, workers, tasks int, seed int64, pol Policy, check bool) ([][]pickRec, Result, string) {
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
	return o.picks, res, k.EffScheme()
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
						eagerPicks, eagerRes, eagerScheme := runEffEquiv(t, topo, eng.shards, eng.workers, tasks, seed, IndexEager{spatialT}, false)
						if eagerScheme != "eager" {
							t.Fatalf("baseline scheme = %q, want eager", eagerScheme)
						}
						total := 0
						for _, p := range eagerPicks {
							total += len(p)
						}
						if total < tasks {
							t.Fatalf("only %d scheduling decisions recorded, want >= %d", total, tasks)
						}
						lazyPicks, lazyRes, lazyScheme := runEffEquiv(t, tc.topo(), eng.shards, eng.workers, tasks, seed, spatialT, true)
						if lazyScheme != "lazy" {
							t.Fatalf("scheme = %q, want lazy (spatial relay is uniform)", lazyScheme)
						}
						if !reflect.DeepEqual(lazyRes, eagerRes) {
							t.Errorf("Result diverged:\n  lazy  %+v\n  eager %+v", lazyRes, eagerRes)
						}
						samePicks(t, "lazy", lazyPicks, eagerPicks)
					})
				}
			}
		}
	}
}

// TestEffEquivalenceScanSched pins the off-diagonal of the two
// selections: lazy evaluation with the reference scan scheduler (no runq,
// no stall heap — scanRunnable pulls horizons through the lazy
// neighborhood minimum) must match the eager scan run pick for pick.
func TestEffEquivalenceScanSched(t *testing.T) {
	run := func(pol Policy) ([][]pickRec, Result, string) {
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
		return o.picks, res, k.EffScheme()
	}
	eagerPicks, eagerRes, _ := run(ScanEager{spatialT})
	lazyPicks, lazyRes, scheme := run(ScanLazy{spatialT})
	if scheme != "lazy" {
		t.Fatalf("scheme = %q, want lazy", scheme)
	}
	if !reflect.DeepEqual(lazyRes, eagerRes) {
		t.Errorf("Result diverged:\n  lazy  %+v\n  eager %+v", lazyRes, eagerRes)
	}
	if !reflect.DeepEqual(lazyPicks, eagerPicks) {
		t.Fatalf("pick sequences diverged under the scan scheduler")
	}
}

// TestEffEquivalenceValidated reruns one seed per engine with a
// ValidatingTracer under lazy evaluation, so every trace event checks the
// busy-frontier partition, the pruning floors, and every fresh memo
// against an independently recomputed eager fixpoint (Kernel.Validate)
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
			if k.EffScheme() != "lazy" {
				t.Fatalf("scheme = %q, want lazy", k.EffScheme())
			}
			k.SetTracer(&ValidatingTracer{K: k, Interval: 1})
			equivWorkload(k, 9, 24)
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
