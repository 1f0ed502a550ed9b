package topology

import (
	"strings"
	"testing"
)

// TestParseSpecBadInput: every zero, negative, non-numeric or overflowing
// size or tier parameter is an error, never a panic (mesh:0 used to panic
// in MeshDims, an out-of-range chiplet latency in Chiplet).
func TestParseSpecBadInput(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string // substring of the error
	}{
		{"mesh:0", "bad core count"},
		{"mesh:-4", "bad core count"},
		{"mesh:abc", "want WxH"},
		{"mesh:0x4", "want WxH"},
		{"mesh:4x-1", "want WxH"},
		{"torus:0x0", "want WxH"},
		{"ring:-1", "bad core count"},
		{"star:0", "bad core count"},
		{"full:x", "bad core count"},
		{"clustered:0:0", "K dividing N"},
		{"clustered:-2:-4", "K dividing N"},
		{"chiplet:-1x2", "want WxH"},
		{"0", "unknown spec"},
		{"-4", "unknown spec"},
		{"mesh:16777217", "more than"},
		{"mesh:16385", "chiplet spec"},
		{"mesh:128x129", "chiplet spec"},
		{"torus:256x256", "chiplet spec"},
		{"ring:16385", "chiplet spec"},
		{"clustered:4:16388", "chiplet spec"},
		{"16385", "chiplet spec"},
		{"full:1025", "chiplet spec"},
		{"full:2048", "chiplet spec"},
		{"mesh:9999999999x9999999999", "more than"},
		{"chiplet:4096x4096,4096x4096", "more than"},
		{"ring:99999999999999999999", "bad core count"},
		{"chiplet:2x1@NaN", "bad latency"},
		{"chiplet:2x1@Inf", "bad latency"},
		{"chiplet:2x1@1e300", "bad latency"},
		{"chiplet:2x1@1+-1", "bad penalty"},
		{"chiplet:2x1@1+1e300", "bad penalty"},
		{"chiplet:" + strings.Repeat("1x1,", 20) + "1x1", "exceeds"},
	} {
		top, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) built %d cores, want an error", tc.spec, top.N())
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) = %v, want an error containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestFlatSpecCapBoundary: the largest flat machines under the cap are
// admitted (checked without building them).
func TestFlatSpecCapBoundary(t *testing.T) {
	for _, spec := range []string{"mesh:16384", "mesh:128x128", "ring:16384", "full:1024", "chiplet:8x8,4x4,10x10"} {
		if err := CheckSpec(spec); err != nil {
			t.Errorf("CheckSpec(%q) = %v, want nil", spec, err)
		}
	}
}

// fuzzBuildLimit bounds the machines the fuzz target actually builds:
// constructors are linear (full:N quadratic) in the size, and the parse
// and size checks run on every input anyway.
const fuzzBuildLimit = 256

// FuzzParseSpec: ParseSpec never panics, and an accepted spec builds a
// machine of exactly the planned size. The seed corpus lives in
// testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"mesh:16", "mesh:8x2", "torus:4x4", "ring:10", "star:5", "full:6",
		"clustered:4:64", "chiplet:2x2,2x2", "chiplet:2x2@2/64+1,2x1", "64",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := planSpec(spec)
		if err != nil {
			return
		}
		if p.cores < 1 || p.cores > maxSpecCores {
			t.Fatalf("planSpec(%q) admitted %d cores", spec, p.cores)
		}
		if p.cores > fuzzBuildLimit {
			return
		}
		if top := p.build(); top.N() != p.cores {
			t.Fatalf("spec %q planned %d cores, built %d", spec, p.cores, top.N())
		}
	})
}
