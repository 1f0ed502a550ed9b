package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"simany/internal/bench"
	"simany/internal/config"
	"simany/internal/core"
	"simany/internal/network"
	"simany/internal/topology"
)

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// small returns the workload at a reduced scale, without recorded
// statistics, so tests run in seconds.
func small(w workload) workload {
	w.scale = 0.1
	w.recorded = simStats{}
	return w
}

func TestNamesAndBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !namePattern.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !namePattern.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is malformed or repeated", w.name)
		}
		seen[w.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		file    []struct{ Name, Unit string }
		program []metric
	}{{file.EndToEnd, endToEnd}, {file.PerLayer, perLayer}} {
		if len(c.file) != len(c.program) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.program))
		}
		for i, m := range c.file {
			if m.Name != c.program[i].name || m.Unit != c.program[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					i, m.Name, m.Unit, c.program[i].name, c.program[i].unit)
			}
		}
	}
}

func TestWorkloadsBuildTheirMachines(t *testing.T) {
	for _, w := range workloads {
		p, err := small(w).prepare(defaultSeed, nil, &times{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		topo, err := w.topology()
		if err != nil {
			t.Fatal(err)
		}
		if p.k.NumCores() != topo.N() || p.k.NumShards() != w.shards || p.k.Sharded() != (w.shards > 1) {
			t.Errorf("%s: %d cores, %d shards (sharded=%v); want %d cores, %d shards",
				w.name, p.k.NumCores(), p.k.NumShards(), p.k.Sharded(), topo.N(), w.shards)
		}
	}
}

func TestCheckEngineRejectsDemotion(t *testing.T) {
	// Quantum synchronization cannot run sharded, so the kernel demotes.
	k, _, err := config.Machine{Topo: topology.Mesh(16), Policy: "quantum:200", Shards: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.DemotionNotice() == "" {
		t.Fatal("expected a demoted kernel")
	}
	w := workload{shards: 4}
	if err := w.checkEngine(k); err == nil {
		t.Error("checkEngine accepted a demoted kernel")
	}
}

// lying reports a native checksum the simulated run cannot match.
type lying struct{ bench.Benchmark }

func (l lying) RunNative() uint64 { return l.Benchmark.RunNative() + 1 }

func TestFailedRunsAreCounted(t *testing.T) {
	base := small(workloads[1])
	liar := base
	liar.bench = func() bench.Benchmark { return lying{bench.NewQuicksort()} }
	misrecorded := base
	misrecorded.recorded = simStats{Steps: 1}
	for name, w := range map[string]workload{"lying checksum": liar, "wrong recorded statistics": misrecorded} {
		for _, traced := range []bool{false, true} {
			res := measure(w, defaultSeed, time.Nanosecond, traced, io.Discard)
			if res.Correct || res.Failed != res.Attempted || res.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v failed=%d attempted=%d; want every run failed",
					name, traced, res.Correct, res.Failed, res.Attempted)
			}
			timing := map[bool]string{false: "setup_s", true: "bench.generate_s"}[traced]
			if _, ok := res.Metrics[timing]; !ok {
				t.Errorf("%s (traced=%v): failed runs must still report their timings", name, traced)
			}
		}
	}
}

func table(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

func TestReplayGuard(t *testing.T) {
	topo := topology.Mesh(16)
	hops := int64(len(network.New(topo, network.DefaultParams()).Route(0, 15)) - 1)
	sends := []sendRec{{src: 0, dst: 15, stamp: 0}}
	if _, err := replaySends(topo, sends, core.Result{Messages: 1, Bytes: 8, Hops: hops}); err != nil {
		t.Fatalf("faithful replay rejected: %v", err)
	}
	if _, err := replaySends(topo, sends, core.Result{Messages: 1, Bytes: 8, Hops: hops + 1}); err == nil {
		t.Error("replay with a different hop total was timed")
	}
	if _, err := replaySends(topo, sends, core.Result{Messages: 2, Bytes: 8, Hops: hops}); err == nil {
		t.Error("replay missing a send was timed")
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := measure(small(w), defaultSeed, time.Nanosecond, traced, io.Discard)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s (traced=%v): correct=%v, %d of %d runs failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range table(traced) {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 {
					t.Errorf("%s (traced=%v): metric %s = %+v (present %v)", w.name, traced, m.name, v, ok)
				}
			}
			if len(res.Metrics) != len(table(traced)) {
				t.Errorf("%s (traced=%v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(table(traced)))
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", workloads[0].name, "--trace", "2"},
		{"--workload", workloads[0].name, "--seconds", "0"},
		{"--workload", workloads[0].name, "extra"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
