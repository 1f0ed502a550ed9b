package simany

// Sparse-idle benchmark: per-completion cost of effective-time maintenance
// on mostly-idle machines, lazy evaluation against the eager propagation
// flood (docs/effective-time.md). The same 64-task strided workload runs
// on machines from 1k to 100k cores: under eager evaluation every
// scheduling step re-floods the idle region, so steps/sec collapses with
// machine size even though the busy work is constant; under lazy
// evaluation the cost tracks the busy frontier and stays flat. The dense
// pair at 1k cores pins the other end: with every core busy there is no
// idle region, so the two schemes must cost about the same.
//
// The sequential engine is used throughout — it has no barriers, so every
// effective-time update happens at a step site and the comparison isolates
// exactly the per-completion cost the lazy scheme targets. The committed
// BENCH_sparse.json snapshot is regenerated with
//
//	go test -run '^$' -bench BenchmarkSparseIdle -benchmem -benchtime 2x .

import (
	"testing"
	"time"

	"simany/internal/core"
	"simany/internal/topology"
	"simany/internal/vtime"
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

// eagerSpatial is the spatial policy without its IdleRelayPolicy
// capability, so the kernel keeps the eager propagation flood on the
// indexed scheduler. Methods are forwarded explicitly: embedding Spatial
// would promote every capability.
type eagerSpatial struct{ s core.Spatial }

func (p eagerSpatial) Name() string                     { return p.s.Name() }
func (p eagerSpatial) Horizon(c *core.Core) vtime.Time  { return p.s.Horizon(c) }
func (p eagerSpatial) IdleTime(c *core.Core) vtime.Time { return p.s.IdleTime(c) }
func (p eagerSpatial) ShardLocal() bool                 { return p.s.ShardLocal() }

// benchSparseIdle runs `tasks` strided compute tasks to completion and
// reports steps/sec over the Run call alone; machine construction happens
// with the timer stopped so the metric (and the alloc guard) measure the
// simulation, not topology building.
func benchSparseIdle(b *testing.B, spec string, tasks, slices int, eager bool) {
	b.ReportAllocs()
	var steps int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		topo := sparseTopo(spec)
		var pol core.Policy = core.Spatial{T: core.DefaultT}
		want := "lazy"
		if eager {
			pol, want = eagerSpatial{core.Spatial{T: core.DefaultT}}, "eager"
		}
		k := core.New(core.Config{Topo: topo, Policy: pol, Seed: 42})
		if got := k.EffScheme(); got != want {
			b.Fatalf("effective-time scheme = %q, want %q", got, want)
		}
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

// BenchmarkSparseIdle is the CI-guarded sparse/dense × lazy/eager matrix.
// Acceptance (BENCH_sparse.json): lazy steps/sec stays within a small
// factor across 1k→100k cores while eager falls off by orders of
// magnitude, with at least a 10x lazy advantage at 100k.
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
	for _, mode := range []struct {
		name  string
		eager bool
	}{{"lazy", false}, {"eager", true}} {
		for _, sz := range sizes {
			b.Run(mode.name+"/"+sz.name, func(b *testing.B) {
				benchSparseIdle(b, sz.spec, tasks, slices, mode.eager)
			})
		}
	}
	// Dense control: all 1024 cores busy, no idle region to maintain.
	b.Run("dense-lazy/1k", func(b *testing.B) {
		benchSparseIdle(b, "chiplet:8x8,4x4", 1024, slices, false)
	})
	b.Run("dense-eager/1k", func(b *testing.B) {
		benchSparseIdle(b, "chiplet:8x8,4x4", 1024, slices, true)
	})
}
