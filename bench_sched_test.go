package simany

// Scheduler benchmark: a scheduling-bound workload driven through the
// reference linear-scan scheduler and through the indexed runnable queue
// (docs/scheduler.md), at the paper's many-core scale (1024 cores) and at
// a small scale (64 cores) where the scan is cheap and the index must at
// least break even.
//
// The workload is one compute task per core with heterogeneous block costs
// under spatial synchronization (T=100cy): fast cores run ahead, hit the
// drift bound against their slower neighbors and stall, so almost every
// scheduling step is a stall/resume decision over the whole machine —
// exactly the per-pick work the runnable index replaces. Application
// benchmarks like quicksort spend most wall time inside task bodies and
// the memory model; this one isolates the scheduler.
//
// `go test -bench BenchmarkSchedulerSteps` reports steps/sec per variant;
// the committed BENCH_sched.json snapshot is regenerated with
//
//	go test -run '^$' -bench BenchmarkSchedulerSteps -benchtime 3x

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"simany/internal/core"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// scanSpatial is the spatial policy without its ShardLocalPolicy
// capability, so the kernel keeps the reference scan; idle effective
// times relay by the same T as under the indexed variants. Methods are
// forwarded explicitly: embedding Spatial would promote every capability.
type scanSpatial struct{ s core.Spatial }

func (p scanSpatial) Name() string                    { return p.s.Name() }
func (p scanSpatial) Horizon(c *core.Core) vtime.Time { return p.s.Horizon(c) }
func (p scanSpatial) IdleRelay() vtime.Time           { return p.s.IdleRelay() }

// schedBenchRounds is the number of annotation blocks each core executes.
const schedBenchRounds = 30

// runSchedWorkload simulates the stall-heavy workload once and returns the
// step count and the wall time of the simulation proper.
func runSchedWorkload(b *testing.B, cores, shards, workers int, wantSched string) (int64, time.Duration) {
	b.Helper()
	var pol core.Policy = core.Spatial{T: core.DefaultT}
	if wantSched == "scan" {
		pol = scanSpatial{core.Spatial{T: core.DefaultT}}
	}
	k := core.New(core.Config{
		Topo:    topology.Mesh(cores),
		Policy:  pol,
		Seed:    42,
		Shards:  shards,
		Workers: workers,
	})
	if got := k.Scheduler(); got != wantSched {
		b.Fatalf("scheduler = %q, want %q", got, wantSched)
	}
	for i := 0; i < cores; i++ {
		// Block costs straddle the drift bound: the spread keeps fast
		// cores perpetually stalling against their slower neighbors.
		cost := 40.0 + 15.0*float64(i%8)
		k.InjectTask(i, fmt.Sprintf("w%d", i), func(e *core.Env) {
			for r := 0; r < schedBenchRounds; r++ {
				e.ComputeCycles(cost)
			}
		}, nil, 0)
	}
	start := time.Now()
	res, err := k.Run()
	if err != nil {
		b.Fatal(err)
	}
	wall := time.Since(start)
	if res.FinalVT == vtime.Inf || res.Steps < int64(cores) {
		b.Fatalf("degenerate run: %d steps, final VT %v", res.Steps, res.FinalVT)
	}
	return res.Steps, wall
}

func benchSchedSteps(b *testing.B, cores, shards, workers int, wantSched string) {
	var steps int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		s, w := runSchedWorkload(b, cores, shards, workers, wantSched)
		steps += s
		wall += w
	}
	b.ReportMetric(float64(steps)/wall.Seconds(), "steps/sec")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(b.N), "wall-ns/op")
}

// BenchmarkSchedulerSteps compares scheduling throughput of the reference
// scan against the indexed runnable queue. The interesting cell is the
// 1024-core sequential one — there every pick under the scan walks 1024
// cores (re-evaluating the horizon of each stalled one) while the index
// answers with a heap peek; at 64 cores the scan is cheap and the index
// must merely not regress.
func BenchmarkSchedulerSteps(b *testing.B) {
	shards := runtime.NumCPU()
	if shards < 2 {
		shards = 8 // single-CPU host: still exercise the per-shard engine
	}
	b.Run("1024/seq-scan", func(b *testing.B) {
		benchSchedSteps(b, 1024, 1, 1, "scan")
	})
	b.Run("1024/seq-index", func(b *testing.B) {
		benchSchedSteps(b, 1024, 1, 1, "index")
	})
	b.Run("1024/sharded-index", func(b *testing.B) {
		benchSchedSteps(b, 1024, shards, runtime.NumCPU(), "index")
	})
	b.Run("64/seq-scan", func(b *testing.B) {
		benchSchedSteps(b, 64, 1, 1, "scan")
	})
	b.Run("64/seq-index", func(b *testing.B) {
		benchSchedSteps(b, 64, 1, 1, "index")
	})
}
