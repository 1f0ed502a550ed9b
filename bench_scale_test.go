package simany

// Scale benchmark for hierarchical chiplet machines: the same spawn-tree
// workload on a 1024-core chiplet machine (8x8-core chiplets in a 4x4 chip
// mesh) run on the sequential engine and sharded one-shard-per-chip with
// chip-aligned partitions. `go test -bench BenchmarkScale -benchmem`
// reports steps/sec and allocs per scheduling step for both engines; the
// committed BENCH_scale.json snapshot is regenerated with
//
//	go test -run '^$' -bench BenchmarkScale -benchmem -benchtime 3x
//
// TestScale100kFootprint is the 100k-core smoke check: a 102400-core
// chiplet machine must construct, partition chip-aligned and run a sharded
// workload inside a fixed heap ceiling (the CI memory gate).

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"simany/internal/core"
	"simany/internal/rt"
	"simany/internal/topology"
)

// scaleTopology is the benchmark machine: 16 chiplets of 64 cores.
func scaleTopology() *topology.Topology {
	t, err := topology.ParseSpec("chiplet:8x8,4x4")
	if err != nil {
		panic(err)
	}
	return t
}

// scaleDepth sizes the spawn tree; 2^(depth+1)-1 conditional spawns spread
// across the 1024 cores.
const scaleDepth = 11

func runScaleTree(b *testing.B, topo *topology.Topology, shards, workers int) (steps int64, wall time.Duration) {
	b.Helper()
	k := core.New(core.Config{
		Topo:    topo,
		Policy:  core.Spatial{T: core.DefaultT},
		Seed:    42,
		Shards:  shards,
		Workers: workers,
	})
	r := rt.New(k, nil, rt.DefaultOptions())
	var node func(depth int) func(*core.Env)
	var g *rt.Group
	node = func(depth int) func(*core.Env) {
		return func(e *core.Env) {
			e.ComputeCycles(30)
			if depth == 0 {
				return
			}
			r.SpawnOrRun(e, g, "n", 16, node(depth-1))
			r.SpawnOrRun(e, g, "n", 16, node(depth-1))
			e.ComputeCycles(5)
		}
	}
	start := time.Now()
	res, err := r.Run("scaletree", func(e *core.Env) {
		g = r.NewGroup()
		node(scaleDepth)(e)
		r.Join(e, g)
	})
	if err != nil {
		b.Fatal(err)
	}
	wall = time.Since(start)
	if res.Steps < 1<<scaleDepth {
		b.Fatalf("degenerate run: %d steps", res.Steps)
	}
	return res.Steps, wall
}

func benchScale(b *testing.B, shards, workers int) {
	var steps int64
	var wall time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, w := runScaleTree(b, scaleTopology(), shards, workers)
		steps += s
		wall += w
	}
	b.ReportMetric(float64(steps)/wall.Seconds(), "steps/sec")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N), "wall-ns/op")
}

// BenchmarkScale measures simulation throughput on the 1024-core chiplet
// machine: the sequential engine against 16 shards (one per chip-mesh
// chiplet, fixed so event semantics and the CI alloc guard do not depend
// on the host CPU count; workers adapt to the host). Sharding wins even on
// one host CPU because each shard's scheduler scans only its own chiplet's
// cores — O(n/S) instead of O(n) per step.
func BenchmarkScale(b *testing.B) {
	b.Run("seq", func(b *testing.B) {
		benchScale(b, 1, 1)
	})
	b.Run("sharded", func(b *testing.B) {
		benchScale(b, 16, runtime.NumCPU())
	})
}

// scaleFootprintCeiling is the heap ceiling for the 100k-core smoke run.
// Measured ~115 MiB on linux/amd64; 1 GiB leaves headroom for GC timing
// and architecture differences while still catching any return of
// per-core map-heavy state (a few KB per core is ~0.5 GB at this scale).
const scaleFootprintCeiling = 1 << 30 // 1 GiB

// TestScale100kFootprint constructs the reference 102400-core machine
// (8x8-core chiplets, 4x4 chiplets per chip, 10x10 chips), verifies the
// shard partition is chip-aligned, runs a step-bounded sharded workload
// with every core busy and checks the live heap stays under the CI
// ceiling. The step bound deliberately stops the run while cores are still
// computing: a dense machine is the scale scenario, and ending mid-flight
// avoids simulating 102400 task completions in a smoke test.
func TestScale100kFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-core machine build in -short mode")
	}
	topo, err := topology.ParseSpec("chiplet:8x8,4x4,10x10")
	if err != nil {
		t.Fatal(err)
	}
	if topo.N() != 102400 {
		t.Fatalf("N = %d, want 102400", topo.N())
	}
	h := topo.Hierarchy()
	const shards = 16
	part := topology.PartitionFor(topo, shards)
	cuts := topology.TierCuts(topo, part)
	if cuts[0] != 0 || cuts[1] != 0 {
		t.Fatalf("100k partition severs intra-chip links: tier cuts %v", cuts)
	}
	if h.NumUnits(1) != 100 {
		t.Fatalf("chip count = %d, want 100", h.NumUnits(1))
	}

	const maxSteps = 50000
	k := core.New(core.Config{
		Topo:     topo,
		Policy:   core.Spatial{T: core.DefaultT},
		Seed:     7,
		Shards:   shards,
		MaxSteps: maxSteps,
	})
	for c := 0; c < topo.N(); c++ {
		k.InjectTask(c, "w", func(e *core.Env) {
			for i := 0; i < 100000; i++ {
				e.ComputeCycles(100)
			}
		}, nil, 0)
	}
	_, err = k.Run()
	// The step bound firing is the expected outcome — it proves the
	// machine simulated maxSteps scheduling steps.
	if err == nil || !strings.Contains(err.Error(), "scheduling steps") {
		t.Fatalf("run ended with %v, want the %d-step bound to fire", err, maxSteps)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("100k-core machine: %.1f MiB live heap after %d steps (%d links)",
		float64(ms.HeapAlloc)/(1<<20), maxSteps, topo.NumLinks())
	if ms.HeapAlloc > scaleFootprintCeiling {
		t.Errorf("live heap %d bytes exceeds the %d-byte scale ceiling",
			ms.HeapAlloc, uint64(scaleFootprintCeiling))
	}
}

// scaleSparseBudget bounds the wall clock of the sparse 100k smoke run.
// With lazy effective times the run takes a few seconds on one CPU; the
// eager flood would recompute the ~102k-core idle region on every one of
// the ~10^5 scheduling steps and blow far past this, so the budget doubles
// as a regression gate on the per-completion cost.
const scaleSparseBudget = 90 * time.Second

// TestScale100kSparse is the sparse counterpart of the footprint smoke:
// the same 102400-core chiplet machine with only 256 busy cores, run TO
// COMPLETION. Dense machines amortize idle-region maintenance over busy
// work; a sparse machine is all idle region, which is exactly the regime
// the lazy effective-time scheme (docs/effective-time.md) exists for.
func TestScale100kSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-core machine build in -short mode")
	}
	topo, err := topology.ParseSpec("chiplet:8x8,4x4,10x10")
	if err != nil {
		t.Fatal(err)
	}
	const shards = 16
	k := core.New(core.Config{
		Topo:   topo,
		Policy: core.Spatial{T: core.DefaultT},
		Seed:   7,
		Shards: shards,
	})
	// 256 tasks strided across the machine: every shard owns a sliver of
	// the busy frontier, the rest of its cores sit idle the whole run.
	const tasks = 256
	stride := topo.N() / tasks
	for i := 0; i < tasks; i++ {
		k.InjectTask(i*stride, "w", func(e *core.Env) {
			for j := 0; j < 200; j++ {
				e.ComputeCycles(100)
			}
		}, nil, 0)
	}
	start := time.Now()
	res, err := k.Run()
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sparse 100k run: %d steps in %v (%d busy of %d cores)",
		res.Steps, wall.Round(time.Millisecond), tasks, topo.N())
	// One scheduling step executes compute slices until the drift horizon
	// interrupts, so steps ≪ slices; the run completing at all (liveTasks
	// drained) plus a per-task floor keeps the check non-vacuous.
	if res.Steps < tasks {
		t.Errorf("steps = %d, want >= %d", res.Steps, tasks)
	}
	if wall > scaleSparseBudget {
		t.Errorf("sparse run took %v, budget %v — per-completion cost is scaling with the idle region again", wall, scaleSparseBudget)
	}
}
