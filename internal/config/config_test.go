package config

import (
	"math"
	"strings"
	"testing"

	"simany/internal/core"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func TestDefaultMachineBuilds(t *testing.T) {
	k, r, err := Default(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	if k.NumCores() != 8 {
		t.Errorf("cores = %d", k.NumCores())
	}
	if k.Policy().Name() != "spatial" {
		t.Errorf("policy = %s", k.Policy().Name())
	}
	if r == nil {
		t.Fatal("no runtime")
	}
}

func TestPolymorphicSpeeds(t *testing.T) {
	m := Default(8)
	m.Style = Polymorphic
	s := m.Speeds()
	if len(s) != 8 {
		t.Fatalf("speeds = %v", s)
	}
	var total float64
	for i, v := range s {
		if i%2 == 0 && v != 0.5 {
			t.Errorf("even core speed = %v", v)
		}
		if i%2 == 1 && v != 1.5 {
			t.Errorf("odd core speed = %v", v)
		}
		total += v
	}
	// Same cumulated computing power as uniform.
	if total != 8 {
		t.Errorf("total power = %v", total)
	}
}

func TestClusteredTopology(t *testing.T) {
	m := Default(64)
	m.Style = Clustered4
	topo := m.Topology()
	if topo.N() != 64 || !topo.Connected() {
		t.Error("bad clustered topology")
	}
	m.Style = Clustered8
	if m.Topology().N() != 64 {
		t.Error("bad clustered8 topology")
	}
}

func TestPolicyParsing(t *testing.T) {
	cases := map[string]string{
		"":           "spatial",
		"spatial":    "spatial",
		"cyclelevel": "cycle-level",
		"quantum:50": "quantum",
		"slack:200":  "bounded-slack",
		"laxp2p:100": "laxp2p",
		"unbounded":  "unbounded",
	}
	for in, want := range cases {
		m := Default(4)
		m.Policy = in
		k, _, err := m.Build()
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if k.Policy().Name() != want {
			t.Errorf("%q -> %s, want %s", in, k.Policy().Name(), want)
		}
	}
}

func TestPolicyErrors(t *testing.T) {
	for _, bad := range []string{
		"wat", "quantum:-5", "slack:x",
		"quantum:0.0001", // rounds to a zero quantum (used to divide by zero)
		"quantum:NaN", "slack:1e300", "laxp2p:+Inf", "quantum:0",
	} {
		m := Default(4)
		m.Policy = bad
		if _, _, err := m.Build(); err == nil {
			t.Errorf("no error for policy %q", bad)
		}
	}
	m := Default(0)
	if _, _, err := m.Build(); err == nil {
		t.Error("no error for zero cores")
	}
	for _, bad := range []vtime.Time{-vtime.CyclesInt(5), vtime.Inf} {
		m := Default(4)
		m.T = bad
		if _, _, err := m.Build(); err == nil {
			t.Errorf("no error for T %v", bad)
		}
	}
}

// TestCycles: every user-given cycle count is finite, at least one
// millicycle once rounded, and at most a trillion cycles.
func TestCycles(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want vtime.Time
		ok   bool
	}{
		{100, vtime.CyclesInt(100), true},
		{0.5, vtime.Cycles(0.5), true},
		{0.001, 1, true},
		{0.0005, 1, true}, // rounds up to one millicycle
		{1e12, vtime.CyclesInt(1e12), true},
		{0.0001, 0, false}, // rounds to zero
		{0, 0, false},
		{-5, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
		{1e300, 0, false},
		{1.5e12, 0, false},
	} {
		got, err := Cycles(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("Cycles(%v) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestFlatMachineCap: flat machines above topology.MaxFlatCores are
// refused before any route table is built; the error names chiplet specs.
func TestFlatMachineCap(t *testing.T) {
	_, _, err := Default(topology.MaxFlatCores + 1).Build()
	if err == nil || !strings.Contains(err.Error(), "chiplet") {
		t.Fatalf("Build of %d flat cores = %v, want a cap error naming chiplet specs", topology.MaxFlatCores+1, err)
	}
}

func TestStyleAndMemStrings(t *testing.T) {
	if Uniform.String() != "uniform" || Polymorphic.String() != "polymorphic" ||
		Clustered4.String() != "clustered4" || Clustered8.String() != "clustered8" {
		t.Error("style names")
	}
	if SharedMem.String() != "shared" || SharedMemCoherent.String() != "shared+coherence" ||
		DistributedMem.String() != "distributed" {
		t.Error("mem names")
	}
}

func TestMachinesRunATask(t *testing.T) {
	for _, mk := range []MemKind{SharedMem, SharedMemCoherent, DistributedMem} {
		for _, st := range []Style{Uniform, Polymorphic, Clustered4} {
			m := Default(16)
			m.Mem = mk
			m.Style = st
			m.Seed = 3
			k, r, err := m.Build()
			if err != nil {
				t.Fatal(err)
			}
			ran := 0
			res, err := r.Run("root", func(e *core.Env) {
				g := r.NewGroup()
				for i := 0; i < 8; i++ {
					r.SpawnOrRun(e, g, "c", 0, func(ce *core.Env) {
						ce.ComputeCycles(100)
						ce.Read(64, 8, 8)
						ran++
					})
				}
				r.Join(e, g)
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", st, mk, err)
			}
			if ran != 8 || res.FinalVT <= 0 {
				t.Errorf("%s/%s: ran=%d vt=%v", st, mk, ran, res.FinalVT)
			}
			_ = k
		}
	}
}

func TestCycleLevelMachine(t *testing.T) {
	m := Default(8)
	m.Policy = "cyclelevel"
	m.Seed = 9
	_, r, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run("root", func(e *core.Env) {
		e.ComputeCycles(100)
		e.Read(0, 16, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVT < vtime.CyclesInt(100) {
		t.Errorf("FinalVT = %v", res.FinalVT)
	}
}
