package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"io"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"simany/internal/bench"
	"simany/internal/core"
	"simany/internal/metrics"
	"simany/internal/network"
	"simany/internal/rt"
	"simany/internal/topology"
	"simany/internal/trace"
	"simany/internal/vtime"
)

// times holds the host seconds of one repetition's public calls, each
// timed from outside in the order cmd/simany makes them.
type times struct {
	generate, native, topology, build, program float64
	// setup is everything before Run; total adds Run and the check.
	setup, run, check, total float64
}

// sample is one untraced repetition of the user's whole wait.
type sample struct {
	times
	// nativeRef is the host seconds of one native run, timed right after
	// the simulation (see nativeRef).
	nativeRef    float64
	heapMiB      float64
	allocPerStep float64
	stats        simStats
	// position is the engine position at completion (steps on the
	// sequential engine, barriers on the sharded one).
	position int64
	// err is nil when the run passed every correctness check.
	err error
}

// prepared is a machine ready to run the workload's program.
type prepared struct {
	b      bench.Benchmark
	want   uint64
	topo   *topology.Topology
	k      *core.Kernel
	r      *rt.Runtime
	root   func(*core.Env)
	finish func() uint64
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// prepare does the set-up half of the wait — Generate, RunNative,
// topology, Machine.Build, Program — timing each call into t. reg, when
// non-nil, is attached as the machine's metrics registry.
func (w workload) prepare(seed int64, reg *metrics.Registry, t *times) (*prepared, error) {
	start := time.Now()
	lap := func() float64 {
		now := time.Now()
		d := now.Sub(start).Seconds()
		start = now
		return d
	}
	defer func() {
		t.setup = t.generate + t.native + t.topology + t.build + t.program
	}()
	p := &prepared{b: w.bench()}
	p.b.Generate(seed, w.scale)
	t.generate = lap()
	p.want = p.b.RunNative()
	t.native = lap()
	topo, err := w.topology()
	t.topology = lap()
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	p.topo = topo
	m := w.machine(topo, seed)
	m.Metrics = reg
	p.k, p.r, err = m.Build()
	t.build = lap()
	if err != nil {
		return nil, fmt.Errorf("build machine: %w", err)
	}
	if err := w.checkEngine(p.k); err != nil {
		return nil, err
	}
	p.root, p.finish = p.b.Program(p.r, w.mode())
	t.program = lap()
	return p, nil
}

// checkEngine confirms the kernel runs the engine the workload names: a
// sharded workload must not have been clamped or demoted to sequential.
func (w workload) checkEngine(k *core.Kernel) error {
	if n := k.ClampNotice(); n != "" {
		return fmt.Errorf("machine clamped: %s", n)
	}
	if n := k.DemotionNotice(); n != "" {
		return fmt.Errorf("machine demoted: %s", n)
	}
	if k.Sharded() != (w.shards > 1) || k.NumShards() != w.shards {
		return fmt.Errorf("machine has %d shards (sharded=%v), workload names %d", k.NumShards(), k.Sharded(), w.shards)
	}
	return nil
}

// rep runs one untraced repetition: set-up, heap reading, Run, check. ref,
// when non-nil, is the simulated statistics every repetition must repeat.
func (w workload) rep(seed int64, ref *simStats) sample {
	var s sample
	p, err := w.prepare(seed, nil, &s.times)
	if err != nil {
		s.total = s.setup
		s.err = err
		return s
	}
	// The forced GC sits outside every timed span: it leaves each Run the
	// same starting heap and makes HeapAlloc the live set-up heap.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapMiB = float64(ms.HeapAlloc) / (1 << 20)
	alloc0 := ms.TotalAlloc

	start := time.Now()
	res, runErr := p.r.Run(p.b.Name(), p.root)
	s.run = since(start)

	runtime.ReadMemStats(&ms)
	if res.Steps > 0 {
		s.allocPerStep = float64(ms.TotalAlloc-alloc0) / float64(res.Steps)
	}
	s.stats = statsOf(res)
	s.position = p.k.Position()

	start = time.Now()
	s.err = w.check(seed, runErr, p.finish, p.want, s.stats, ref)
	s.check = since(start)
	s.total = s.setup + s.run + s.check

	var refErr error
	s.nativeRef, refErr = nativeRef(p)
	s.err = errors.Join(s.err, refErr)
	return s
}

// refSpan is how long a repetition's native reference runs: long enough
// to time a RunNative that takes a millisecond or less, short next to a
// simulation.
const refSpan = 100 * time.Millisecond

// nativeRef runs the prepared inputs natively, repeated for at least
// refSpan, and returns the host seconds of one native run. It runs right
// after the simulation, so the two see the same host speed, which on a
// shared host swings by up to 2x over minutes; the simulation's slowdown
// over it cancels that swing. Every repeat must give the checksum the
// simulation was checked against.
func nativeRef(p *prepared) (float64, error) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < refSpan {
		if got := p.b.RunNative(); got != p.want {
			return 0, fmt.Errorf("native reference checksum %#x differs from the first native run's %#x", got, p.want)
		}
		n++
	}
	return since(start) / float64(n), nil
}

func statsOf(res core.Result) simStats {
	return simStats{
		FinalVT:      res.FinalVT,
		Steps:        res.Steps,
		Messages:     res.Messages,
		Hops:         res.Hops,
		Stalls:       res.Stalls,
		Instructions: res.Instructions,
	}
}

// check is the correctness gate of one run: no error or deadlock, the
// checksum of the native run, the statistics of the first repetition, and
// at defaultSeed the recorded statistics.
func (w workload) check(seed int64, runErr error, finish func() uint64, want uint64, st simStats, ref *simStats) error {
	if runErr != nil {
		return fmt.Errorf("run: %w", runErr)
	}
	if got := finish(); got != want {
		return fmt.Errorf("checksum %#x differs from the native run's %#x", got, want)
	}
	if ref != nil && st != *ref {
		return fmt.Errorf("simulated statistics %+v differ from the first repetition's %+v", st, *ref)
	}
	if seed == defaultSeed && w.recorded != (simStats{}) && st != w.recorded {
		return fmt.Errorf("simulated statistics %+v differ from the recorded %+v", st, w.recorded)
	}
	return nil
}

// timedReps makes one warm-up repetition and then repeats the untraced
// wait while the next repetition fits in budget, counted from the start of
// the warm-up, and at least once. The warm-up is checked like every
// repetition but reported in no median: it pays the process's first heap
// growth and cold caches. The first passing repetition's statistics become
// the reference.
func (w workload) timedReps(seed int64, budget time.Duration) (warm sample, timed []sample) {
	var ref *simStats
	next := func() sample {
		s := w.rep(seed, ref)
		if s.err == nil && ref == nil {
			st := s.stats
			ref = &st
		}
		return s
	}
	// A repetition starts only if one as long as the last still ends within
	// budget, so the pass does not overrun it by a repetition.
	start := time.Now()
	warm = next()
	last := time.Since(start)
	for len(timed) == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		timed = append(timed, next())
		last = time.Since(t)
	}
	return warm, timed
}

// checkpointInfo describes the mid-run checkpoint of a traced run.
type checkpointInfo struct {
	seconds float64
	bytes   int64
	sum     uint64
}

// runPaused runs the prepared program, pausing at engine position mid (no
// pause when mid is 0) to write a checkpoint, then runs to completion.
// runS covers both Run segments and excludes the checkpoint.
func runPaused(p *prepared, mid int64) (res core.Result, ck checkpointInfo, runS float64, err error) {
	p.k.PauseAfter(mid)
	start := time.Now()
	res, err = p.r.Run(p.b.Name(), p.root)
	runS = since(start)
	if mid == 0 {
		return res, ck, runS, err
	}
	if !errors.Is(err, core.ErrPaused) {
		if err == nil {
			err = fmt.Errorf("run ended before pause position %d", mid)
		}
		return res, ck, runS, err
	}
	var buf bytes.Buffer
	start = time.Now()
	if err := p.k.Checkpoint(&buf); err != nil {
		return res, ck, runS, fmt.Errorf("checkpoint: %w", err)
	}
	ck = checkpointInfo{seconds: since(start), bytes: int64(buf.Len())}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	ck.sum = h.Sum64()
	p.k.PauseAfter(0)
	start = time.Now()
	res, err = p.k.Run()
	runS += since(start)
	return res, ck, runS, err
}

// chromeWindow is how many events the traced run's recorder keeps for the
// Chrome export. trace.WriteChrome builds its whole document in memory, a
// few hundred bytes per event, so exporting the million-event streams of
// the mesh1k workloads would need over a gigabyte.
const chromeWindow = 1 << 18

// streamTracer is the traced run's tracer: a trace.Recorder holding the
// first chromeWindow events, plus the count, a hash and the send list of
// the whole stream, so a long run is checked and replayed in full without
// holding every event.
type streamTracer struct {
	rec   *trace.Recorder
	seed  maphash.Seed
	n     int64
	hash  uint64
	sends []sendRec
}

func newStreamTracer(seed maphash.Seed) *streamTracer {
	return &streamTracer{rec: trace.NewRecorder(chromeWindow), seed: seed}
}

func (s *streamTracer) Trace(ev core.TraceEvent) {
	s.rec.Trace(ev)
	s.n++
	h := s.hash
	for _, x := range [...]uint64{ev.Seq, uint64(ev.Kind), math.Float64bits(ev.VT.InCycles()), uint64(ev.Core), ev.TaskID, uint64(ev.Aux), maphash.String(s.seed, ev.Task)} {
		h = (h ^ x) * 1099511628211
	}
	s.hash = h
	if ev.Kind == core.TraceSend {
		s.sends = append(s.sends, sendRec{src: int32(ev.Core), dst: int32(ev.Aux), stamp: ev.VT})
	}
}

// sendRec is one traced message emission, compact so the replay list of a
// long run stays small.
type sendRec struct {
	src, dst int32
	stamp    vtime.Time
}

// replaySends times the traced run's sends through a fresh network model
// and returns host nanoseconds per send. It returns an error instead of a
// time when the replay does not reproduce the run's message and hop
// totals: it would then be timing a different program.
func replaySends(topo *topology.Topology, sends []sendRec, res core.Result) (float64, error) {
	if int64(len(sends)) != res.Messages {
		return 0, fmt.Errorf("send replay: trace holds %d sends, run sent %d messages", len(sends), res.Messages)
	}
	if len(sends) == 0 {
		return 0, errors.New("send replay: the run sent no messages")
	}
	// Payload sizes are not traced; the run's mean size keeps the chunk
	// arithmetic representative. Sizes never change routes or hop counts.
	size := int(res.Bytes / res.Messages)
	var secs []float64
	for i := 0; i < 3; i++ {
		m := network.New(topo, network.DefaultParams())
		var hops int64
		start := time.Now()
		for _, s := range sends {
			msg := m.Send(network.Message{Src: int(s.src), Dst: int(s.dst), Size: size, Stamp: s.stamp})
			hops += int64(msg.Hops)
		}
		secs = append(secs, since(start))
		if hops != res.Hops {
			return 0, fmt.Errorf("send replay: %d hops, run had %d", hops, res.Hops)
		}
	}
	return median(secs) * 1e9 / float64(len(sends)), nil
}

// medianTimed runs f n times and returns the median host seconds.
func medianTimed(n int, f func()) float64 {
	secs := make([]float64, n)
	for i := range secs {
		start := time.Now()
		f()
		secs[i] = since(start)
	}
	return median(secs)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func histMeanCycles(snap metrics.Snapshot, name string) float64 {
	for _, h := range snap.Histograms {
		if h.Name == name && h.Count > 0 {
			return vtime.Time(h.Sum / h.Count).InCycles()
		}
	}
	return 0
}

// emptyRoundFrac is the share of shard rounds in which a shard took no
// step: the zero bucket of shard.round.steps.
func emptyRoundFrac(snap metrics.Snapshot) float64 {
	for _, h := range snap.Histograms {
		if h.Name == "shard.round.steps" && h.Count > 0 && len(h.Buckets) > 0 && h.Buckets[0].UpperBound == 0 {
			return float64(h.Buckets[0].Count) / float64(h.Count)
		}
	}
	return 0
}

func counterValue(snap metrics.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// traced runs the workload once more with a metrics registry and a trace
// recorder attached, pausing at the untraced run's midpoint to write a
// checkpoint, and returns the per-layer metrics. ok are the passing
// untraced repetitions, which supply the reference statistics, the pause
// position and the untraced medians. On a sharded workload the traced run
// is repeated with one worker and must agree. runErrs has one entry per
// run checked, nil when the run passed.
func (w workload) traced(seed int64, ok []sample) (v map[string]float64, runErrs []error) {
	v = map[string]float64{}
	runs := make([]float64, len(ok))
	for i, s := range ok {
		runs[i] = s.run
	}
	untracedRun := median(runs)
	ref, mid := ok[0].stats, ok[0].position/2

	reg := metrics.New()
	p, err := w.prepare(seed, reg, &times{})
	if err != nil {
		return v, []error{fmt.Errorf("traced run: %w", err)}
	}
	tr := newStreamTracer(maphash.MakeSeed())
	p.k.SetTracer(tr)
	res, ck, runS, err := runPaused(p, mid)
	if err == nil {
		err = w.check(seed, nil, p.finish, p.want, statsOf(res), &ref)
	}
	if err != nil {
		return v, []error{fmt.Errorf("traced run: %w", err)}
	}

	snap := reg.Snapshot()
	st := p.r.Stats()
	var compute, memT float64
	for i := 0; i < p.k.NumCores(); i++ {
		cs := p.k.Core(i).Stats()
		compute += cs.ComputeTime.InCycles()
		memT += cs.MemTime.InCycles()
	}
	maxShare := 0.0
	for _, s := range res.PerShard {
		maxShare = max(maxShare, s.Util)
	}
	acceptRatio := 0.0
	if st.Probes > 0 {
		acceptRatio = float64(st.Probes-st.Denied) / float64(st.Probes)
	}
	for name, x := range map[string]float64{
		"topology.cores":         float64(p.topo.N()),
		"topology.links":         float64(p.topo.NumLinks()),
		"network.messages":       float64(res.Messages),
		"network.hops":           float64(res.Hops),
		"network.bytes":          float64(res.Bytes),
		"network.out_of_order":   float64(res.OutOfOrder),
		"network.link_wait_cy":   histMeanCycles(snap, "net.link.wait"),
		"network.msg_latency_cy": histMeanCycles(snap, "net.msg.latency"),
		"core.steps":             float64(res.Steps),
		"core.ns_per_step":       untracedRun * 1e9 / float64(max(res.Steps, 1)),
		"core.stalls":            float64(res.Stalls),
		"core.avg_runnable":      res.AvgRunnable,
		"core.barriers":          float64(counterValue(snap, "shard.barrier.count")),
		"core.empty_round_frac":  emptyRoundFrac(snap),
		"core.max_shard_share":   maxShare,
		"core.final_vt_cycles":   res.FinalVT.InCycles(),
		"core.drift_spread_cy":   histMeanCycles(snap, "drift.spread"),
		"rt.probes":              float64(st.Probes),
		"rt.probe_accept_ratio":  acceptRatio,
		"rt.spawns":              float64(st.Spawns),
		"rt.local_runs":          float64(st.LocalRuns),
		"rt.data_reqs":           float64(st.DataReqs),
		"rt.join_waits":          float64(st.JoinWaits),
		"timing.instructions":    float64(res.Instructions),
		"timing.compute_cycles":  compute,
		"mem.mem_cycles":         memT,
		"trace.events":           float64(tr.n),
		"trace.overhead_x":       runS / untracedRun,
		"snap.checkpoint_s":      ck.seconds,
		"snap.checkpoint_kib":    float64(ck.bytes) / 1024,
	} {
		v[name] = x
	}

	start := time.Now()
	writeErr := trace.WriteChrome(io.Discard, tr.rec.Events(), p.k.NumCores(), res.FinalVT)
	v["trace.write_s"] = since(start)
	var metricsText strings.Builder
	start = time.Now()
	metricsErr := reg.WriteText(&metricsText)
	v["metrics.write_s"] = since(start)
	ns, replayErr := replaySends(p.topo, tr.sends, res)
	if replayErr == nil {
		v["network.send_ns"] = ns
	}
	runErrs = append(runErrs, errors.Join(writeErr, metricsErr, replayErr))
	topo := p.topo
	v["topology.partition_s"] = medianTimed(5, func() { topology.PartitionFor(topo, w.shards) })
	v["network.new_s"] = medianTimed(3, func() { network.New(topo, network.DefaultParams()) })

	if w.shards > 1 {
		err := w.sameAtOneWorker(seed, mid, tr, res, ck, metricsText.String())
		if err != nil {
			err = fmt.Errorf("workers=1 repeat: %w", err)
		}
		runErrs = append(runErrs, err)
	}
	return v, runErrs
}

// sameAtOneWorker repeats the traced run with one worker: for a fixed
// (seed, shards) pair the result, trace, metrics and checkpoint must be
// identical at every worker count.
func (w workload) sameAtOneWorker(seed, mid int64, wantTrace *streamTracer, want core.Result, wantCk checkpointInfo, wantMetrics string) error {
	w.workers = 1
	reg := metrics.New()
	p, err := w.prepare(seed, reg, &times{})
	if err != nil {
		return err
	}
	tr := newStreamTracer(wantTrace.seed)
	p.k.SetTracer(tr)
	res, ck, _, err := runPaused(p, mid)
	if err != nil {
		return err
	}
	if got := p.finish(); got != p.want {
		return fmt.Errorf("checksum %#x differs from the native run's %#x", got, p.want)
	}
	if !reflect.DeepEqual(res, want) {
		return fmt.Errorf("result %+v differs from %+v", res, want)
	}
	if ck.bytes != wantCk.bytes || ck.sum != wantCk.sum {
		return fmt.Errorf("checkpoint differs (%d bytes, want %d)", ck.bytes, wantCk.bytes)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		return err
	}
	if b.String() != wantMetrics {
		return errors.New("metrics snapshot differs")
	}
	if tr.n != wantTrace.n || tr.hash != wantTrace.hash {
		return fmt.Errorf("trace stream differs (%d events, want %d)", tr.n, wantTrace.n)
	}
	return nil
}
