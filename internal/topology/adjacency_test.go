package topology

import (
	"bytes"
	"strings"
	"testing"

	"simany/internal/vtime"
)

func TestParseAdjacencyLinks(t *testing.T) {
	src := `# small test net
cores 4
link 0 1
link 1 2 2.5
link 2 3 4 64
`
	tp, err := ParseAdjacency(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tp.N() != 4 {
		t.Fatalf("N = %d", tp.N())
	}
	l, ok := tp.LinkBetween(1, 2)
	if !ok || l.Latency != vtime.Cycles(2.5) {
		t.Errorf("link 1-2 = %+v ok=%v", l, ok)
	}
	l, ok = tp.LinkBetween(3, 2)
	if !ok || l.Latency != vtime.CyclesInt(4) || l.Bandwidth != 64 {
		t.Errorf("link 3-2 = %+v ok=%v", l, ok)
	}
	l, ok = tp.LinkBetween(0, 1)
	if !ok || l.Latency != DefaultLatency || l.Bandwidth != DefaultBandwidth {
		t.Errorf("link 0-1 defaults wrong: %+v", l)
	}
}

func TestParseAdjacencyMatrix(t *testing.T) {
	src := `cores 3
matrix
0 1 0
1 0 1
0 1 0
`
	tp, err := ParseAdjacency(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumLinks() != 4 {
		t.Errorf("NumLinks = %d, want 4", tp.NumLinks())
	}
	if _, ok := tp.LinkBetween(0, 2); ok {
		t.Error("unexpected link 0-2")
	}
	if tp.Diameter() != 2 {
		t.Errorf("diameter = %d", tp.Diameter())
	}
}

func TestParseAdjacencyErrors(t *testing.T) {
	bad := []string{
		"",
		"link 0 1",
		"cores 0",
		"cores -1",
		"cores two",
		"cores 16385", // flat machine above MaxFlatCores
		"cores 2\nlink 0 0",
		"cores 2\nlink 0 5",
		"cores 2\nlink 0 1 -3",
		"cores 2\nlink 0 1 1 0",
		"cores 2\nlink 0",
		"cores 2\nfrobnicate",
		"cores 2\nmatrix\n0 1",
		"cores 2\nmatrix\n0 1 1\n1 0 1",
		"matrix",
	}
	for _, src := range bad {
		if _, err := ParseAdjacency(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	orig := Clustered(16, DefaultClusteredParams(4))
	var buf bytes.Buffer
	if err := WriteAdjacency(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseAdjacency(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != orig.N() || back.NumLinks() != orig.NumLinks() {
		t.Fatalf("round trip changed shape: %d/%d links vs %d/%d",
			back.N(), back.NumLinks(), orig.N(), orig.NumLinks())
	}
	for _, l := range orig.Links() {
		got, ok := back.LinkBetween(l.From, l.To)
		if !ok {
			t.Fatalf("missing link %d-%d", l.From, l.To)
		}
		if got.Latency != l.Latency || got.Bandwidth != l.Bandwidth {
			t.Fatalf("link %d-%d changed: %+v vs %+v", l.From, l.To, got, l)
		}
	}
}
