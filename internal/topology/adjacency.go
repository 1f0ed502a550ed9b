package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The adjacency file format, as in SiMany's configuration files, gives the
// connections between cores as an adjacency matrix. Our textual form is:
//
//	# comment
//	cores N
//	link A B [latency_cycles [bandwidth_bytes_per_cycle]]
//	...
//
// or a raw 0/1 matrix after the "matrix" keyword, one row per line, using
// the default latency and bandwidth (the matrix must be symmetric):
//
//	cores N
//	matrix
//	0 1 0 ...
//	...
//
// Both directions of a link are created from a single declaration.
// Latencies are cycle counts in [0, 1e9]; the machine must be connected.

// ParseAdjacency reads a topology description from r. Malformed input,
// out-of-range values and disconnected machines are errors, never panics.
func ParseAdjacency(r io.Reader) (*Topology, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var t *Topology
	lineNo := 0
	inMatrix := false
	matrixRow := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if inMatrix {
			if t == nil {
				return nil, fmt.Errorf("topology: line %d: matrix before cores", lineNo)
			}
			if len(fields) != t.N() {
				return nil, fmt.Errorf("topology: line %d: matrix row has %d entries, want %d", lineNo, len(fields), t.N())
			}
			for col, f := range fields {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("topology: line %d: bad matrix entry %q", lineNo, f)
				}
				switch {
				case col > matrixRow:
					if v != 0 {
						t.AddLink(matrixRow, col, DefaultLatency, DefaultBandwidth)
					}
				case col < matrixRow:
					// Row col already declared this pair; links are
					// symmetric, so the two entries must agree.
					if _, linked := t.LinkBetween(matrixRow, col); linked != (v != 0) {
						return nil, fmt.Errorf("topology: line %d: matrix entry (%d,%d) disagrees with (%d,%d): links are symmetric", lineNo, matrixRow, col, col, matrixRow)
					}
				}
			}
			matrixRow++
			if matrixRow == t.N() {
				inMatrix = false
			}
			continue
		}
		switch fields[0] {
		case "cores":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topology: line %d: cores takes one argument", lineNo)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("topology: line %d: bad core count %q", lineNo, fields[1])
			}
			if err := CheckFlatCores(n); err != nil {
				return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
			}
			t = New(n, "file")
		case "matrix":
			if t == nil {
				return nil, fmt.Errorf("topology: line %d: matrix before cores", lineNo)
			}
			inMatrix = true
			matrixRow = 0
		case "link":
			if t == nil {
				return nil, fmt.Errorf("topology: line %d: link before cores", lineNo)
			}
			if len(fields) < 3 || len(fields) > 5 {
				return nil, fmt.Errorf("topology: line %d: link takes 2-4 arguments", lineNo)
			}
			a, err1 := strconv.Atoi(fields[1])
			b, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("topology: line %d: bad link endpoints", lineNo)
			}
			lat := DefaultLatency
			bw := DefaultBandwidth
			if len(fields) >= 4 {
				var ok bool
				if lat, ok = parseTierCycles(fields[3]); !ok {
					return nil, fmt.Errorf("topology: line %d: bad latency %q (want 0..%g cycles)", lineNo, fields[3], float64(maxTierCycles))
				}
			}
			if len(fields) == 5 {
				v, err := strconv.Atoi(fields[4])
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("topology: line %d: bad bandwidth %q", lineNo, fields[4])
				}
				bw = v
			}
			if a < 0 || a >= t.N() || b < 0 || b >= t.N() || a == b {
				return nil, fmt.Errorf("topology: line %d: invalid link %d-%d", lineNo, a, b)
			}
			t.AddLink(a, b, lat, bw)
		default:
			return nil, fmt.Errorf("topology: line %d: unknown keyword %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		return nil, fmt.Errorf("topology: no cores declaration found")
	}
	if inMatrix {
		return nil, fmt.Errorf("topology: truncated adjacency matrix")
	}
	if !t.Connected() {
		return nil, fmt.Errorf("topology: %d-core adjacency is disconnected: some cores cannot reach each other", t.N())
	}
	return t, nil
}

// WriteAdjacency writes t in the link-list textual form readable by
// ParseAdjacency.
func WriteAdjacency(w io.Writer, t *Topology) error {
	if _, err := fmt.Fprintf(w, "# topology %s\ncores %d\n", t.Name(), t.N()); err != nil {
		return err
	}
	for _, l := range t.Links() {
		if l.From > l.To {
			continue // each symmetric pair written once
		}
		if _, err := fmt.Fprintf(w, "link %d %d %g %d\n", l.From, l.To, l.Latency.InCycles(), l.Bandwidth); err != nil {
			return err
		}
	}
	return nil
}
