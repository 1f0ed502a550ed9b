package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// Scheduler-equivalence property suite (docs/scheduler.md): a seeded
// random workload of spawns, request/reply blocking, wake-ups, lock
// sections and spatial stalls runs on the indexed runnable queue with the
// pick oracle (oracle_test.go) replaying the reference scan at every
// decision. On the sequential engine the same workload also runs whole on
// the reference scan (the ScanLazy wrapper), and the exact (core, key)
// pick sequences must match; the sharded engine, which only shard-local
// policies reach, is additionally paused at every barrier to compare each
// domain's round-setup head with the scan. CI runs this file under the
// race detector.

const (
	kindEquivEcho network.Kind = 240 + iota
	kindEquivWake
	kindEquivSpawn
)

type equivSpawn struct {
	task  *Task
	birth *Core
}

// equivWorkload injects a randomized task soup derived from seed. Every
// decision inside task bodies draws from RNGs seeded by (seed, core/task),
// never from host state, so two kernels with equal (seed, shards) run the
// same program regardless of scheduler implementation.
func equivWorkload(k *Kernel, seed int64, tasks int) {
	n := k.NumCores()
	k.Handle(kindEquivEcho, func(k *Kernel, msg network.Message) {
		// Reply after a small handling cost; the requester blocks on it.
		req := msg.Payload.(*Task)
		k.SendAt(msg.Dst, req.core.ID, kindEquivWake, 8, req,
			msg.Arrival+vtime.CyclesInt(3))
	})
	k.Handle(kindEquivWake, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})
	k.Handle(kindEquivSpawn, func(k *Kernel, msg network.Message) {
		sp := msg.Payload.(equivSpawn)
		k.PlaceTask(sp.task, msg.Dst, msg.Arrival, sp.birth)
	})

	var body func(depth int, taskSeed int64) func(*Env)
	body = func(depth int, taskSeed int64) func(*Env) {
		return func(e *Env) {
			rng := rand.New(rand.NewSource(taskSeed))
			rounds := 2 + rng.Intn(4)
			for i := 0; i < rounds; i++ {
				e.ComputeCycles(float64(1 + rng.Intn(220)))
				switch rng.Intn(5) {
				case 0: // request/reply block (may hit the pendingWake path)
					dst := rng.Intn(n)
					e.Send(dst, kindEquivEcho, 16, e.Task())
					e.Block()
				case 1: // lock-holder exemption window
					e.AcquireLockExempt()
					e.ComputeCycles(float64(1 + rng.Intn(150)))
					e.ReleaseLockExempt()
				case 2: // spawn a child elsewhere, with a birth entry
					if depth < 2 {
						me := e.CoreID()
						child := k.NewTask(me, fmt.Sprintf("c%d", taskSeed),
							body(depth+1, taskSeed*31+int64(i)+7), nil)
						k.RegisterBirth(k.Core(me), child, e.Now())
						e.Send(rng.Intn(n), kindEquivSpawn, 24,
							equivSpawn{task: child, birth: k.Core(me)})
					}
				case 3: // cooperative yield (re-enters the scheduler)
					e.Yield()
				default: // plain compute burst
					e.ComputeCycles(float64(1 + rng.Intn(60)))
				}
			}
		}
	}

	root := rand.New(rand.NewSource(seed))
	for i := 0; i < tasks; i++ {
		core := root.Intn(n)
		at := vtime.CyclesInt(int64(root.Intn(400)))
		k.InjectTask(core, fmt.Sprintf("t%d", i), body(0, seed*97+int64(i)), nil, at)
	}
}

// runEquiv executes the workload under policy pol and returns the
// per-domain pick sequences, the Result and the kernel's scheduler name.
// With check set, the pick oracle verifies every decision, and on the
// sharded engine the run pauses at every barrier to verify the round-setup
// heads too.
func runEquiv(t *testing.T, topo *topology.Topology, shards, workers int, seed int64, pol Policy, check bool) ([][]pickRec, Result, string) {
	t.Helper()
	k := New(Config{
		Topo:    topo,
		Policy:  pol,
		Seed:    seed,
		Shards:  shards,
		Workers: workers,
	})
	o := watchPicks(k, check)
	equivWorkload(k, seed, 3*k.NumCores()/2)
	var res Result
	if check && k.Sharded() {
		var barriers int
		res, barriers = runPausedEachBarrier(t, k, func(barrier int) {
			if err := checkBarrierHeads(k); err != nil {
				t.Fatalf("barrier %d: %v", barrier, err)
			}
		})
		if barriers == 0 {
			t.Fatal("sharded run crossed no barrier")
		}
	} else {
		var err error
		if res, err = k.Run(); err != nil {
			t.Fatalf("policy %T shards=%d: %v", pol, shards, err)
		}
	}
	if err := o.err(); err != nil {
		t.Fatal(err)
	}
	if check && o.checked() == 0 {
		t.Fatal("the pick oracle checked no decision")
	}
	return o.picks, res, k.Scheduler()
}

// samePicks fails unless two runs made identical per-domain decisions.
func samePicks(t *testing.T, what string, got, want [][]pickRec) {
	t.Helper()
	for d := range want {
		if len(got[d]) != len(want[d]) {
			t.Fatalf("domain %d: %d %s picks, %d reference picks", d, len(got[d]), what, len(want[d]))
		}
		for i := range want[d] {
			if got[d][i] != want[d][i] {
				t.Fatalf("domain %d pick %d: %s chose %+v, reference chose %+v", d, i, what, got[d][i], want[d][i])
			}
		}
	}
}

func TestSchedulerEquivalenceRandom(t *testing.T) {
	topos := []struct {
		name string
		topo func() *topology.Topology
	}{
		{"mesh25", func() *topology.Topology { return topology.Mesh(25) }},
		{"clustered24", func() *topology.Topology {
			return topology.Clustered(24, topology.DefaultClusteredParams(4))
		}},
	}
	engines := []struct {
		name            string
		shards, workers int
	}{
		{"seq", 1, 1},
		{"sharded4x3", 4, 3},
	}
	for _, tc := range topos {
		for _, eng := range engines {
			for _, seed := range []int64{1, 7, 23} {
				name := fmt.Sprintf("%s/%s/seed%d", tc.name, eng.name, seed)
				t.Run(name, func(t *testing.T) {
					// The reference: the scan on the sequential engine, a
					// plain (unchecked) indexed run on the sharded one,
					// where the per-pick scan replay is the comparison.
					var ref Policy = ScanLazy{spatialT}
					wantSched := "scan"
					if eng.shards > 1 {
						ref, wantSched = spatialT, "index"
					}
					refPicks, refRes, refName := runEquiv(t, tc.topo(), eng.shards, eng.workers, seed, ref, false)
					if refName != wantSched {
						t.Fatalf("reference scheduler = %q, want %q", refName, wantSched)
					}
					total := 0
					for _, p := range refPicks {
						total += len(p)
					}
					// A degenerate workload would make the comparison vacuous;
					// every task needs at least one scheduling decision.
					if min := 3 * 24 / 2; total < min {
						t.Fatalf("only %d scheduling decisions recorded, want >= %d", total, min)
					}
					idxPicks, idxRes, idxName := runEquiv(t, tc.topo(), eng.shards, eng.workers, seed, spatialT, true)
					if idxName != "index" {
						t.Fatalf("scheduler = %q, want index (spatial is shard-local)", idxName)
					}
					if !reflect.DeepEqual(idxRes, refRes) {
						t.Errorf("Result diverged:\n  index %+v\n  reference %+v", idxRes, refRes)
					}
					samePicks(t, "indexed", idxPicks, refPicks)
				})
			}
		}
	}
}

// TestSchedulerEquivalenceValidated reruns one seed per engine with a
// ValidatingTracer and the pick oracle, so every trace event additionally
// checks the queue minima caches and the structural invariants of the
// runnable index (Kernel.Validate) during a live randomized run.
func TestSchedulerEquivalenceValidated(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			k := New(Config{
				Topo:    topology.Mesh(16),
				Policy:  spatialT,
				Seed:    5,
				Shards:  shards,
				Workers: 2,
			})
			o := watchPicks(k, true)
			k.SetTracer(&ValidatingTracer{K: k, Interval: 1})
			equivWorkload(k, 5, 24)
			if _, err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if err := o.err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
