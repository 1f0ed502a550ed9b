package config

import (
	"strings"
	"testing"

	"simany/internal/topology"
)

// FuzzParseMachine: ParseMachine answers every input with a Machine or an
// error, never a panic, and an accepted Machine is buildable in
// principle: a positive T, a core count under the flat-machine cap, a
// topology spec that passes CheckSpec and a policy parsePolicy accepts.
// The seed corpus lives in testdata/fuzz/FuzzParseMachine.
func FuzzParseMachine(f *testing.F) {
	for _, s := range []string{
		"cores 64\n",
		"cores 256\nstyle clustered4\nmem distributed\npolicy quantum:50\nT 200\nseed 9\nspeedaware on\n",
		"topo chiplet:2x2,2x2\npolicy laxp2p:80 # comment\n",
		"cores 8\nT 0.5\npolicy slack\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseMachine(strings.NewReader(src), nil)
		if err != nil {
			return
		}
		if m.T <= 0 {
			t.Fatalf("accepted T %v", m.T)
		}
		if m.Cores < 0 || m.Cores > topology.MaxFlatCores {
			t.Fatalf("accepted %d cores", m.Cores)
		}
		if m.TopoSpec != "" {
			if err := topology.CheckSpec(m.TopoSpec); err != nil {
				t.Fatalf("accepted topology spec %q: %v", m.TopoSpec, err)
			}
		}
		if _, _, err := m.parsePolicy(); err != nil {
			t.Fatalf("accepted policy %q: %v", m.Policy, err)
		}
	})
}
