package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaults(t *testing.T) {
	if err := run([]string{"-bench", "octree", "-cores", "8", "-scale", "0.1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerboseDistributed(t *testing.T) {
	err := run([]string{"-bench", "spmxv", "-cores", "8", "-mem", "distributed",
		"-scale", "0.1", "-v"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunStylesAndPolicies(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "octree", "-cores", "8", "-style", "polymorphic", "-scale", "0.1"},
		{"-bench", "octree", "-cores", "8", "-style", "clustered4", "-scale", "0.1"},
		{"-bench", "octree", "-cores", "4", "-policy", "quantum:50", "-scale", "0.1"},
		{"-bench", "octree", "-cores", "4", "-policy", "unbounded", "-scale", "0.1"},
		{"-bench", "octree", "-cores", "4", "-mem", "coherent", "-scale", "0.1"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "nope"},
		{"-bench", "octree", "-style", "weird"},
		{"-bench", "octree", "-mem", "weird"},
		{"-bench", "octree", "-cores", "4", "-policy", "wat"},
		{"-machine", "/nonexistent/machine.conf"},
		// Degenerate drift bounds and policy arguments: NaN used to wrap
		// to a negative T and deadlock, -5 ran until killed, and a
		// quantum rounding to zero divided by it.
		{"-bench", "octree", "-cores", "4", "-T", "NaN"},
		{"-bench", "octree", "-cores", "4", "-T", "-5"},
		{"-bench", "octree", "-cores", "4", "-T", "1e300"},
		{"-bench", "octree", "-cores", "4", "-scale", "0.1", "-policy", "quantum:0.0001"},
		{"-bench", "octree", "-cores", "4", "-scale", "0.1", "-policy", "quantum:NaN"},
		{"-bench", "octree", "-cores", "4", "-scale", "0.1", "-policy", "slack:1e300"},
		// Flat machines above the route-table cap.
		{"-bench", "octree", "-cores", "16385", "-scale", "0.1"},
		{"-bench", "octree", "-topo", "full:2048", "-scale", "0.1"},
		// The scheduler and effective-time paths follow the policy; there
		// is no flag to pick them.
		{"-bench", "octree", "-sched", "scan"},
		{"-bench", "octree", "-eff", "eager"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("no error for %v", args)
		}
	}
}

func TestRunTraceAndTimeline(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.txt")
	err := run([]string{"-bench", "octree", "-cores", "4", "-scale", "0.1",
		"-trace", tracePath, "-timeline"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "task-start") {
		t.Error("trace file missing events")
	}
}

func TestRunMachineFile(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.conf")
	if err := os.WriteFile(mPath, []byte("cores 8\nmem distributed\nT 50\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-bench", "octree", "-machine", mPath, "-scale", "0.1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunShardedTraceMetricsChrome(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	err := run([]string{"-bench", "octree", "-cores", "8", "-scale", "0.1",
		"-shards", "2", "-workers", "2",
		"-trace", jsonPath, "-metrics", metricsPath})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"traceEvents"`) {
		t.Error(".json trace is not in Chrome trace_event format")
	}
	mdata, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"net.msg.latency", "shard.barrier.count"} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics output missing %q:\n%s", want, mdata)
		}
	}
}

func TestRunPprof(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "cpu.pprof")
	if err := run([]string{"-bench", "octree", "-cores", "4", "-scale", "0.1",
		"-pprof", p}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(p); err != nil || st.Size() == 0 {
		t.Errorf("profile not written: %v", err)
	}
}
