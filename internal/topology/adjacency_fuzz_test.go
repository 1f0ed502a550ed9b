package topology

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseAdjacencyRejects: out-of-range or non-finite latencies and
// disconnected machines are errors (each used to panic, in AddLink or
// later in network.New), and so is an asymmetric matrix (whose
// lower-triangle entries used to be dropped silently).
func TestParseAdjacencyRejects(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string // substring of the error
	}{
		{"cores 2\nlink 0 1 1e300", "bad latency"},
		{"cores 2\nlink 0 1 NaN", "bad latency"},
		{"cores 2\nlink 0 1 Inf", "bad latency"},
		{"cores 2\nlink 0 1 -Inf", "bad latency"},
		{"cores 2\nlink 0 1 1000000001", "bad latency"},
		{"cores 4\nlink 0 1\nlink 2 3", "disconnected"},
		{"cores 2", "disconnected"},
		{"cores 3\nmatrix\n0 1 0\n1 0 0\n0 0 0", "disconnected"},
		{"cores 3\nmatrix\n0 1 1\n1 0 0\n1 1 0", "symmetric"},
		{"cores 2\nmatrix\n0 0\n1 0", "symmetric"},
	} {
		top, err := ParseAdjacency(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("ParseAdjacency(%q) built %d cores, want an error", tc.src, top.N())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseAdjacency(%q) = %v, want an error containing %q", tc.src, err, tc.want)
		}
	}
	// The latency bounds themselves are admitted.
	for _, src := range []string{"cores 2\nlink 0 1 0", "cores 2\nlink 0 1 1e9", "cores 1"} {
		if _, err := ParseAdjacency(strings.NewReader(src)); err != nil {
			t.Errorf("ParseAdjacency(%q) = %v, want a machine", src, err)
		}
	}
}

// FuzzParseAdjacency: ParseAdjacency never panics, and an accepted
// machine is connected, within the flat-machine cap, carries only
// in-range link parameters, and survives a WriteAdjacency round trip.
// The seed corpus lives in testdata/fuzz/FuzzParseAdjacency.
func FuzzParseAdjacency(f *testing.F) {
	for _, s := range []string{
		"cores 4\nlink 0 1\nlink 1 2 2.5\nlink 2 3 4 64\n",
		"# comment\ncores 3\nmatrix\n0 1 0\n1 0 1\n0 1 0\n",
		"cores 1\n",
		"cores 2\nlink 0 1 1e9 1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		top, err := ParseAdjacency(strings.NewReader(src))
		if err != nil {
			return
		}
		if top.N() < 1 || top.N() > MaxFlatCores {
			t.Fatalf("accepted %d cores", top.N())
		}
		if !top.Connected() {
			t.Fatalf("accepted a disconnected %d-core machine", top.N())
		}
		for _, l := range top.Links() {
			if l.Latency < 0 || l.Latency.InCycles() > maxTierCycles || l.Bandwidth <= 0 {
				t.Fatalf("accepted link %d-%d latency %v bandwidth %d", l.From, l.To, l.Latency, l.Bandwidth)
			}
		}
		var buf bytes.Buffer
		if err := WriteAdjacency(&buf, top); err != nil {
			t.Fatal(err)
		}
		back, err := ParseAdjacency(&buf)
		if err != nil {
			t.Fatalf("round trip of an accepted machine failed: %v", err)
		}
		if back.N() != top.N() || back.NumLinks() != top.NumLinks() {
			t.Fatalf("round trip changed shape: %d cores/%d links, was %d/%d",
				back.N(), back.NumLinks(), top.N(), top.NumLinks())
		}
	})
}
