// Command simany-topo generates, inspects and converts the adjacency-
// matrix topology files SiMany reads (§III: "Network topology is specified
// in a configuration file as an adjacency matrix").
//
// Usage:
//
//	simany-topo -gen mesh -cores 64 > mesh64.topo
//	simany-topo -gen clustered4 -cores 256 > c4.topo
//	simany-topo -gen chiplet:8x8,4x4,10x10 -describe
//	simany-topo -info mesh64.topo
//	simany-topo -gen chiplet:4x4,2x2 -cuts 4
package main

import (
	"flag"
	"fmt"
	"os"

	"simany/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simany-topo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simany-topo", flag.ContinueOnError)
	var (
		gen   = fs.String("gen", "", "generate a topology: mesh, torus, ring, star, full, clustered4, clustered8, or a spec like chiplet:8x8,4x4 (see docs/topology.md)")
		cores = fs.Int("cores", 64, "core count for the named -gen kinds")
		info  = fs.String("info", "", "print statistics about a topology file")
		desc  = fs.Bool("describe", false, "with -gen: print statistics instead of the adjacency file")
		cuts  = fs.Int("cuts", 0, "with -gen or -info: report partition cut sizes for this shard count")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var t *topology.Topology
	switch {
	case *gen != "":
		var err error
		if t, err = generate(*gen, *cores); err != nil {
			return err
		}
		if !*desc && *cuts == 0 {
			return topology.WriteAdjacency(os.Stdout, t)
		}
	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			return err
		}
		defer f.Close()
		if t, err = topology.ParseAdjacency(f); err != nil {
			return err
		}
		*desc = true
	default:
		fs.Usage()
		return fmt.Errorf("one of -gen or -info is required")
	}
	if *desc {
		describe(t)
	}
	if *cuts > 0 {
		reportCuts(t, *cuts)
	}
	return nil
}

func generate(kind string, n int) (*topology.Topology, error) {
	lat, bw := topology.DefaultLatency, topology.DefaultBandwidth
	switch kind {
	case "mesh", "torus", "ring", "star", "full", "clustered4", "clustered8":
		if n < 1 {
			return nil, fmt.Errorf("-cores must be positive, got %d", n)
		}
	}
	switch kind {
	case "mesh":
		return topology.Mesh(n), nil
	case "torus":
		w, h := topology.MeshDims(n)
		return topology.Torus2D(w, h, lat, bw), nil
	case "ring":
		return topology.Ring(n, lat, bw), nil
	case "star":
		return topology.Star(n, lat, bw), nil
	case "full":
		return topology.FullyConnected(n, lat, bw), nil
	case "clustered4":
		return topology.Clustered(n, topology.DefaultClusteredParams(4)), nil
	case "clustered8":
		return topology.Clustered(n, topology.DefaultClusteredParams(8)), nil
	default:
		// Everything else goes through the spec grammar ("chiplet:...",
		// "mesh:16x8", "ring:64", ...).
		return topology.ParseSpec(kind)
	}
}

// exactDiameterLimit bounds the machine size for which describe computes
// the exact diameter: the all-pairs BFS is O(n·E) and becomes minutes-slow
// past a few thousand cores. Hierarchical topologies carry a precomputed
// analytic bound and are exempt.
const exactDiameterLimit = 4096

func describe(t *topology.Topology) {
	minDeg, maxDeg := t.N(), 0
	for c := 0; c < t.N(); c++ {
		d := t.Degree(c)
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("cores      %d\n", t.N())
	fmt.Printf("links      %d (directed)\n", t.NumLinks())
	connected := t.Connected()
	fmt.Printf("connected  %v\n", connected)
	switch {
	case !connected:
		// Diameter's -1 sentinel means "no finite drift bound"; say so
		// instead of printing a bare -1 (the simulator refuses
		// disconnected topologies at construction).
		fmt.Printf("diameter   unbounded (disconnected network; the simulator rejects it)\n")
	case t.Hierarchy() != nil:
		fmt.Printf("diameter   ≤ %d hops (analytic bound; global drift bound = diameter × T)\n", t.Diameter())
	case t.N() > exactDiameterLimit:
		fmt.Printf("diameter   not computed (exact all-pairs BFS skipped beyond %d cores)\n", exactDiameterLimit)
	default:
		fmt.Printf("diameter   %d hops (global drift bound = diameter × T)\n", t.Diameter())
	}
	fmt.Printf("degree     min %d, max %d\n", minDeg, maxDeg)
	if h := t.Hierarchy(); h != nil {
		fmt.Printf("hierarchy  %s\n", h)
		for i, tr := range h.Tiers {
			fmt.Printf("  %-8s %dx%d  lat %v  bw %d B/cy  penalty %v  (%d units of %d cores)\n",
				topology.TierName(i), tr.W, tr.H, tr.Lat, tr.BW, tr.Penalty,
				h.NumUnits(i), h.CoresPerUnit(i))
		}
	}
}

// reportCuts compares the hierarchy-aligned partition against the flat
// contiguous partition for the given shard count.
func reportCuts(t *topology.Topology, k int) {
	aligned := topology.PartitionFor(t, k)
	flat := topology.Partition(t, k)
	fmt.Printf("partition  %d shards\n", k)
	fmt.Printf("  flat cut     %d edges\n", topology.CutEdges(t, flat))
	fmt.Printf("  aligned cut  %d edges\n", topology.CutEdges(t, aligned))
	if t.Hierarchy() != nil {
		cuts := topology.TierCuts(t, aligned)
		for i, c := range cuts {
			fmt.Printf("  aligned cut at %-8s %d\n", topology.TierName(i), c)
		}
	}
}
