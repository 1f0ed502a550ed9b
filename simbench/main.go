// Command simbench is the repository's benchmark: it times the whole wait
// of a simany user — generating inputs, the native reference run, building
// the topology and the machine, running the simulation and checking its
// result — on one of four workloads, and reports end-to-end metrics
// (tracing off) or per-layer metrics (one extra traced run).
//
// Usage:
//
//	simbench --workload mesh1k-dijkstra --seed 42 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads and what each metric measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of the untraced pass: what a user waits for.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"slowdown_x", "x"},
	{"heap_mib", "MiB"},
}

// perLayer are the metrics of the traced pass, named after the module
// (layer) they describe.
var perLayer = []metric{
	{"fail_rate", "ratio"},
	{"run_s", "s"},
	{"total_s", "s"},
	{"sim_mips", "MIPS"},
	{"bench.generate_s", "s"},
	{"bench.native_s", "s"},
	{"bench.native_ref_s", "s"},
	{"bench.check_s", "s"},
	{"topology.build_s", "s"},
	{"topology.partition_s", "s"},
	{"topology.cores", "count"},
	{"topology.links", "count"},
	{"network.new_s", "s"},
	{"config.build_s", "s"},
	{"network.messages", "count"},
	{"network.hops", "count"},
	{"network.bytes", "B"},
	{"network.out_of_order", "count"},
	{"network.send_ns", "ns"},
	{"network.link_wait_cy", "cy"},
	{"network.msg_latency_cy", "cy"},
	{"core.steps", "count"},
	{"core.ns_per_step", "ns"},
	{"core.stalls", "count"},
	{"core.avg_runnable", "cores"},
	{"core.alloc_b_per_step", "B"},
	{"core.barriers", "count"},
	{"core.empty_round_frac", "ratio"},
	{"core.max_shard_share", "ratio"},
	{"core.final_vt_cycles", "cy"},
	{"core.drift_spread_cy", "cy"},
	{"rt.probes", "count"},
	{"rt.probe_accept_ratio", "ratio"},
	{"rt.spawns", "count"},
	{"rt.local_runs", "count"},
	{"rt.data_reqs", "count"},
	{"rt.join_waits", "count"},
	{"timing.instructions", "count"},
	{"timing.compute_cycles", "cy"},
	{"mem.mem_cycles", "cy"},
	{"trace.events", "count"},
	{"trace.overhead_x", "x"},
	{"trace.write_s", "s"},
	{"metrics.write_s", "s"},
	{"snap.checkpoint_s", "s"},
	{"snap.checkpoint_kib", "KiB"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Int64("seed", defaultSeed, "workload seed: drives input generation and the simulator")
	seconds := fs.Int("seconds", 10, "host seconds to repeat the untraced workload for")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from an extra traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	fmt.Fprintln(stdout, hostShape())
	fmt.Fprintf(stdout, "workload %s: %s, %s memory, scale %g, %s, %d shards, %d workers, seed %d\n",
		w.name, w.bench().Name(), w.mem, w.scale, w.machineName(), w.shards, w.workers, *seed)
	out := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// hostShape records what the figures were measured on.
func hostShape() string {
	// A build outside a git checkout carries no revision.
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	commit += dirty
	return fmt.Sprintf("host cpu=%q numcpu=%d gomaxprocs=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// cpuModel reads the processor name from /proc/cpuinfo where the host has
// one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (w workload) machineName() string {
	if w.spec != "" {
		return w.spec
	}
	return fmt.Sprintf("%d-core mesh", w.cores)
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure runs the warm-up and the timed repetitions for budget and, when
// traced, the traced pass; it writes a readable table to log and returns the
// result. Failed runs count in failed, and their timings are still reported.
func measure(w workload, seed int64, budget time.Duration, traced bool, log io.Writer) result {
	warm, reps := w.timedReps(seed, budget)
	var ok []sample
	runErrs := []error{warm.err}
	for _, s := range reps {
		runErrs = append(runErrs, s.err)
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	col := func(f func(s sample) float64) []float64 {
		v := make([]float64, len(reps))
		for i, s := range reps {
			v[i] = f(s)
		}
		return v
	}
	var table []metric
	cols := map[string][]float64{}
	if !traced {
		table = endToEnd
		cols["setup_s"] = col(func(s sample) float64 { return s.setup })
		cols["slowdown_x"] = col(func(s sample) float64 { return s.run / max(s.nativeRef, 1e-9) })
		cols["heap_mib"] = col(func(s sample) float64 { return s.heapMiB })
	} else {
		table = perLayer
		cols["run_s"] = col(func(s sample) float64 { return s.run })
		cols["total_s"] = col(func(s sample) float64 { return s.total })
		cols["sim_mips"] = col(func(s sample) float64 { return float64(s.stats.Instructions) / max(s.run, 1e-9) / 1e6 })
		cols["bench.generate_s"] = col(func(s sample) float64 { return s.generate })
		cols["bench.native_s"] = col(func(s sample) float64 { return s.native })
		cols["bench.native_ref_s"] = col(func(s sample) float64 { return s.nativeRef })
		cols["bench.check_s"] = col(func(s sample) float64 { return s.check })
		cols["topology.build_s"] = col(func(s sample) float64 { return s.topology })
		cols["config.build_s"] = col(func(s sample) float64 { return s.build })
		cols["core.alloc_b_per_step"] = col(func(s sample) float64 { return s.allocPerStep })
		if len(ok) > 0 {
			v, errs := w.traced(seed, ok)
			runErrs = append(runErrs, errs...)
			for name, x := range v {
				cols[name] = []float64{x}
			}
		} else {
			runErrs = append(runErrs, errors.New("traced run skipped: no untraced repetition passed"))
		}
	}
	attempted, failed := len(runErrs), 0
	for _, err := range runErrs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "simbench: %s: run failed: %v\n", w.name, err)
		}
	}
	cols["fail_rate"] = []float64{float64(failed) / float64(attempted)}
	fmt.Fprintf(log, "1 warm-up and %d timed repetitions, %d runs checked, %d failed\n", len(reps), attempted, failed)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	fmt.Fprintf(log, "%-24s %14s %14s %14s %4s  %s\n", "metric", "median", "min", "max", "n", "unit")
	for _, m := range table {
		v, ok := cols[m.name]
		if !ok {
			continue
		}
		med := median(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		fmt.Fprintf(log, "%-24s %14.6g %14.6g %14.6g %4d  %s\n", m.name, med, lo, hi, len(v), m.unit)
		res.Metrics[m.name] = value{Value: med, Unit: m.unit}
	}
	return res
}
