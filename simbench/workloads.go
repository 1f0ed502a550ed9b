package main

import (
	"fmt"

	"simany/internal/bench"
	"simany/internal/config"
	"simany/internal/topology"
	"simany/internal/vtime"
)

// defaultSeed is the workload seed the recorded statistics belong to.
const defaultSeed = 42

// simStats are the simulated statistics of one run. They are virtual, so a
// change that only speeds up the simulator must leave every field
// identical: across repetitions, across worker counts, and (at
// defaultSeed) equal to the workload's recorded values.
type simStats struct {
	FinalVT      vtime.Time
	Steps        int64
	Messages     int64
	Hops         int64
	Stalls       int64
	Instructions int64
}

// workload is one benchmark configuration: a dwarf, its dataset scale and
// the machine it runs on. Every workload uses spatial synchronization at
// T=100, the paper's reference scheme.
type workload struct {
	name string
	// why is the reason the workload is in the benchmark: the layers it
	// loads and the ones it bypasses.
	why   string
	bench func() bench.Benchmark
	mem   config.MemKind
	scale float64
	// cores builds topology.Mesh(cores), the uniform mesh cmd/simany
	// builds from -cores; spec, when set, is parsed instead.
	cores   int
	spec    string
	shards  int
	workers int
	// recorded holds the simulated statistics at defaultSeed; a zero
	// value skips that comparison (tests run reduced scales).
	recorded simStats
}

// workloads is the benchmark's workload table. The figures in README.md
// were measured with these settings.
var workloads = []workload{
	{
		name: "mesh1k-dijkstra",
		why:  "interaction-bound: network.Send, the rt probe/spawn protocol and lazy effective time over a dense frontier, on the default sequential engine",
		// Sixteen graphs at scale 2 instead of the default four at scale 4:
		// over seeds 301-310 the step count, which sets the run time, spreads
		// by 5% instead of 11%, with 78 instead of 105 cores runnable.
		bench: func() bench.Benchmark {
			d := bench.NewDijkstra()
			d.Datasets = 16
			return d
		},
		mem: config.SharedMem, scale: 2,
		cores: 1024, shards: 1, workers: 1,
		recorded: simStats{FinalVT: vtime.Cycles(235330), Steps: 176428, Messages: 1476928, Hops: 1476967, Stalls: 36669, Instructions: 4256755},
	},
	{
		name:  "mesh64-quicksort",
		why:   "annotation- and memory-model-bound with 33x fewer messages than dijkstra; bypasses network, rt protocol, construction and sharding",
		bench: func() bench.Benchmark { return bench.NewQuicksort() }, mem: config.SharedMem, scale: 8,
		cores: 64, shards: 1, workers: 1,
		recorded: simStats{FinalVT: vtime.Cycles(24634214.75), Steps: 11819, Messages: 24640, Hops: 24646, Stalls: 9372, Instructions: 187444362},
	},
	{
		name:  "mesh1k-sharded-dist-dijkstra",
		why:   "sharded engine under spread load with distributed memory: barrier drain, cross-thread task handoff, home-shard arbitration of cells",
		bench: func() bench.Benchmark { return bench.NewDijkstra() }, mem: config.DistributedMem, scale: 4,
		cores: 1024, shards: 16, workers: 2,
		recorded: simStats{FinalVT: vtime.Cycles(194123.75), Steps: 227954, Messages: 742884, Hops: 1219478, Stalls: 55932, Instructions: 1794786},
	},
	{
		name: "chiplet100k-sparse",
		why:  "construction and memory at 102400 cores plus the O(machine) barrier path, which no other workload reaches",
		// Eight half-size graphs instead of the default four: the same
		// total input, but the barrier count, which sets the run time
		// here, spreads by 5% across seeds instead of 15%.
		bench: func() bench.Benchmark {
			d := bench.NewDijkstra()
			d.Datasets = 8
			return d
		},
		mem: config.SharedMem, scale: 0.5,
		spec: "chiplet:8x8,4x4,10x10", shards: 16, workers: 2,
		recorded: simStats{FinalVT: vtime.Cycles(28591.25), Steps: 13281, Messages: 108637, Hops: 108664, Stalls: 2585, Instructions: 260539},
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// mode is the benchmark program variant matching the memory organization.
func (w workload) mode() bench.Mode {
	if w.mem == config.DistributedMem {
		return bench.Distributed
	}
	return bench.Shared
}

// topology builds the interconnect the way cmd/simany does.
func (w workload) topology() (*topology.Topology, error) {
	if w.spec != "" {
		return topology.ParseSpec(w.spec)
	}
	return topology.Mesh(w.cores), nil
}

// machine describes the simulated machine over an already-built topology.
func (w workload) machine(topo *topology.Topology, seed int64) config.Machine {
	return config.Machine{
		Topo:    topo,
		Mem:     w.mem,
		T:       vtime.Cycles(100),
		Policy:  "spatial",
		Seed:    seed,
		Shards:  w.shards,
		Workers: w.workers,
	}
}
