package simany

// Sparse-idle benchmark: per-completion cost of lazy idle-region
// effective-time evaluation on mostly-idle machines
// (docs/effective-time.md). The same 64-task strided workload runs on
// machines from 1k to 100k cores: the cost tracks the busy frontier, so
// steps/sec stays flat although the idle region grows 100-fold. The
// dense run at 1k cores pins the other end: every core busy, no idle
// region at all.
//
// The sequential engine is used throughout — it has no barriers, so every
// effective-time update happens at a step site and the benchmark isolates
// exactly the per-completion cost. The committed
// BENCH_sparse.json snapshot is regenerated with
//
//	go test -run '^$' -bench BenchmarkSparseIdle -benchmem -benchtime 2x .

import (
	"testing"
	"time"

	"simany/internal/core"
	"simany/internal/topology"
)

// sparseTopo builds the benchmark machines by chiplet spec so the 100k
// point matches the TestScale100kSparse machine exactly.
func sparseTopo(spec string) *topology.Topology {
	t, err := topology.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// benchSparseIdle runs `tasks` strided compute tasks to completion and
// reports steps/sec over the Run call alone; machine construction happens
// with the timer stopped so the metric (and the alloc guard) measure the
// simulation, not topology building.
func benchSparseIdle(b *testing.B, spec string, tasks, slices int) {
	b.ReportAllocs()
	var steps int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo := sparseTopo(spec)
		k := core.New(core.Config{Topo: topo, Policy: core.Spatial{T: core.DefaultT}, Seed: 42})
		stride := topo.N() / tasks
		for t := 0; t < tasks; t++ {
			k.InjectTask(t*stride, "w", func(e *core.Env) {
				for s := 0; s < slices; s++ {
					e.ComputeCycles(100)
				}
			}, nil, 0)
		}
		b.StartTimer()
		start := time.Now()
		res, err := k.Run()
		wall += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/wall.Seconds(), "steps/sec")
}

// BenchmarkSparseIdle is the CI-guarded sparse/dense matrix. Acceptance
// (BENCH_sparse.json): steps/sec stays within a small factor across
// 1k→100k cores, and the lazy/100k floor guards the O(frontier) claim.
func BenchmarkSparseIdle(b *testing.B) {
	sizes := []struct {
		name string
		spec string
	}{
		{"1k", "chiplet:8x8,4x4"},         // 1024 cores
		{"10k", "chiplet:8x8,4x4,3x3"},    // 9216 cores
		{"100k", "chiplet:8x8,4x4,10x10"}, // 102400 cores
	}
	const tasks, slices = 64, 100
	for _, sz := range sizes {
		b.Run("lazy/"+sz.name, func(b *testing.B) {
			benchSparseIdle(b, sz.spec, tasks, slices)
		})
	}
	// Dense control: all 1024 cores busy, no idle region to maintain.
	b.Run("dense-lazy/1k", func(b *testing.B) {
		benchSparseIdle(b, "chiplet:8x8,4x4", 1024, slices)
	})
}
