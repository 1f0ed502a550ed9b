package core

import (
	"errors"
	"fmt"
	"testing"

	"simany/internal/vtime"
)

// Test-side policy wrappers and reference oracles for the engine paths.
//
// The kernel picks its scheduler from the policy's capabilities alone
// (ShardLocalPolicy selects the indexed runnable queue), and every kernel
// evaluates idle effective times lazily from the policy's relay
// increment. The equivalence suites reach the reference paths through
// wrappers: ScanLazy hides Spatial's ShardLocal to force the reference
// scan, and refSpatial replaces the lazy idle-region reads in its horizon
// by a from-scratch reference fixpoint. Methods are forwarded explicitly:
// embedding Spatial would promote all of them. ScanLazy is exported so
// the external selection test can name it too.

// ScanLazy is Spatial on the reference scan (with the lazy effective
// times every kernel uses); not being shard-local, it always runs on the
// sequential engine.
type ScanLazy struct{ P Spatial }

func (w ScanLazy) Name() string               { return w.P.Name() }
func (w ScanLazy) Horizon(c *Core) vtime.Time { return w.P.Horizon(c) }
func (w ScanLazy) IdleRelay() vtime.Time      { return w.P.IdleRelay() }

// refSpatial is Spatial whose horizon reads the reference fixpoint
// instead of the kernel's lazy idle-region memos: every Horizon call
// recomputes the domain-local relay fixpoint from scratch (refFixpoint).
// A whole run under it is therefore a baseline for the lazy machinery
// that shares none of lazyFix, its pruning floors, landmarks or memo
// epochs. With index set it is shard-local (indexed scheduler, sharded
// engine); otherwise it runs on the reference scan.
type refSpatial struct {
	P     Spatial
	index bool
	ref   []vtime.Time // scratch by core ID; domains write disjoint slots
}

func newRefSpatial(p Spatial, cores int, index bool) *refSpatial {
	return &refSpatial{P: p, index: index, ref: make([]vtime.Time, cores)}
}

func (w *refSpatial) Name() string          { return w.P.Name() }
func (w *refSpatial) IdleRelay() vtime.Time { return w.P.IdleRelay() }
func (w *refSpatial) ShardLocal() bool      { return w.index }

func (w *refSpatial) Horizon(c *Core) vtime.Time {
	if c.lockDepth > 0 {
		return vtime.Inf
	}
	refFixpoint(w.ref, c.dom, w.P.T)
	m := refMinNeighbor(w.ref, c.dom, c)
	if b := c.minBirth(); b < m {
		m = b
	}
	if m == vtime.Inf {
		return vtime.Inf
	}
	return m + w.P.T
}

// relayInf is Spatial's horizon with idle cores relaying Inf, the relay
// of every drift-comparison policy: only busy neighbors and birth stamps
// constrain a core. Being shard-local, it drives the indexed scheduler
// and the sharded engine through the infinite-relay paths.
type relayInf struct{ P Spatial }

func (w relayInf) Name() string               { return "relay-inf" }
func (w relayInf) Horizon(c *Core) vtime.Time { return w.P.Horizon(c) }
func (w relayInf) IdleRelay() vtime.Time      { return vtime.Inf }
func (w relayInf) ShardLocal() bool           { return true }

// spatialT is the spatial policy at the paper's reference drift bound.
var spatialT = Spatial{T: DefaultT}

// pickRec is one observed scheduling decision.
type pickRec struct {
	Core int
	Key  vtime.Time
}

// pickOracle observes every scheduling decision of a kernel through
// Kernel.onPick. It records the per-domain (core, key) pick sequences
// (pick order is only deterministic within a domain: workers interleave
// domains) and, when checking, replays the reference implementations at
// every decision:
//
//   - on an indexed domain, scanRunnable(limit) must agree with the index
//     on the picked core, its key and the runnable count — including the
//     empty decisions that end a shard round;
//   - every stalled core of the picking domain must see the same
//     neighborhood minimum as a domain-local reference fixpoint
//     recomputed from the anchors (busy cores' maintained times and the
//     frozen cross-shard proxies);
//   - with allIdle set, every idle core of the picking domain must
//     advertise (Core.Eff) its reference fixpoint value, which under an
//     infinite relay is Inf. This evaluates every idle memo at every
//     pick, so memo invalidation is exercised on fully populated state.
//
// onPick runs on the worker driving the domain, so divergences are
// recorded per domain rather than failing the test from that goroutine.
type pickOracle struct {
	picks   [][]pickRec
	check   bool
	allIdle bool
	errs    []error
	delta   vtime.Time   // the policy's relay increment
	ref     []vtime.Time // reference fixpoint by core ID; domains write disjoint slots
	seen    []int64      // checked decisions per domain
}

// watchPicks installs a pickOracle on k (recording only, or recording and
// checking) and returns it.
func watchPicks(k *Kernel, check bool) *pickOracle {
	o := &pickOracle{
		picks: make([][]pickRec, k.NumShards()),
		check: check,
		errs:  make([]error, k.NumShards()),
		delta: k.policy.IdleRelay(),
		ref:   make([]vtime.Time, k.NumCores()),
		seen:  make([]int64, k.NumShards()),
	}
	k.onPick = o.onPick
	return o
}

func (o *pickOracle) onPick(d *domain, limit vtime.Time, best *Core, key vtime.Time, runnable int) {
	if best != nil {
		o.picks[d.id] = append(o.picks[d.id], pickRec{Core: best.ID, Key: key})
	}
	if !o.check || o.errs[d.id] != nil {
		return
	}
	o.seen[d.id]++
	o.errs[d.id] = o.checkEff(d)
	if o.errs[d.id] == nil && d.rq != nil {
		o.errs[d.id] = checkPick(d, limit, best, key, runnable)
	}
}

// err returns the first recorded divergence, nil when every checked
// decision agreed with the references.
func (o *pickOracle) err() error {
	return errors.Join(o.errs...)
}

// checked returns the number of decisions the oracle verified.
func (o *pickOracle) checked() int64 {
	var n int64
	for _, s := range o.seen {
		n += s
	}
	return n
}

// checkPick compares one indexed decision with the reference scan.
func checkPick(d *domain, limit vtime.Time, best *Core, key vtime.Time, runnable int) error {
	sBest, sKey, sn := d.scanRunnable(limit)
	if best == sBest && runnable == sn && (best == nil || key == sKey) {
		return nil
	}
	name := func(c *Core, key vtime.Time) string {
		if c == nil {
			return "none"
		}
		return fmt.Sprintf("core %d (key %v)", c.ID, key)
	}
	return fmt.Errorf("domain %d (limit %v): index picked %s of %d runnable, scan picked %s of %d runnable",
		d.id, limit, name(best, key), runnable, name(sBest, sKey), sn)
}

// checkEff compares every stalled core's neighborhood minimum, and with
// allIdle every idle core's advertised time, with the reference fixpoint.
func (o *pickOracle) checkEff(d *domain) error {
	refFixpoint(o.ref, d, o.delta)
	for _, c := range d.cores {
		if c.current != nil {
			if got, want := c.minNeighborEff(), refMinNeighbor(o.ref, d, c); got != want {
				return fmt.Errorf("domain %d: stalled core %d lazy neighborhood min %v, reference %v", d.id, c.ID, got, want)
			}
		}
		if o.allIdle && c.idle {
			if got := c.Eff(); got != o.ref[c.ID] {
				return fmt.Errorf("domain %d: idle core %d advertises %v, reference %v", d.id, c.ID, got, o.ref[c.ID])
			}
		}
	}
	return nil
}

// refFixpoint recomputes domain d's shadow-time fixpoint into ref (by
// core ID) by plain relaxation: busy cores anchor at their maintained
// times, idle cores start at Inf and fall to min(neighbors) + delta, with
// foreign neighbors read through the frozen proxies. With no busy core
// the domain has no anchor and every idle core advertises Inf.
func refFixpoint(ref []vtime.Time, d *domain, delta vtime.Time) {
	k := d.k
	busy := false
	for _, c := range d.cores {
		ref[c.ID] = vtime.Inf
		if !c.idle {
			ref[c.ID] = k.eff[c.ID]
			busy = true
		}
	}
	for changed := busy; changed; {
		changed = false
		for _, c := range d.cores {
			if !c.idle {
				continue
			}
			if v := satAdd(refMinNeighbor(ref, d, c), delta); v < ref[c.ID] {
				ref[c.ID] = v
				changed = true
			}
		}
	}
}

// refMinNeighbor is the reference neighborhood minimum of c over the
// fixpoint values in ref.
func refMinNeighbor(ref []vtime.Time, d *domain, c *Core) vtime.Time {
	k := d.k
	m := vtime.Inf
	for j, nbID := range c.neighbors {
		var e vtime.Time
		if k.cores[nbID].dom == d {
			e = ref[nbID]
		} else {
			e = k.nbEff[int(k.adjOff[c.ID])+j]
		}
		if e < m {
			m = e
		}
	}
	return m
}

// checkBarrierHeads compares, at a paused barrier, every indexed domain's
// round-setup head (indexedHead) with the reference scan.
func checkBarrierHeads(k *Kernel) error {
	for _, d := range k.domains {
		if d.rq == nil {
			continue
		}
		head, hKey := d.indexedHead()
		sBest, sKey, _ := d.scanRunnable(vtime.Inf)
		if head != sBest || (head != nil && hKey != sKey) {
			return fmt.Errorf("domain %d round setup: index head %v (key %v), scan head %v (key %v)",
				d.id, head, hKey, sBest, sKey)
		}
	}
	return nil
}

// runPausedEachBarrier runs a sharded kernel to completion, pausing after
// every barrier to call check on the quiescent machine. It returns the
// final Result and the number of barriers observed.
func runPausedEachBarrier(t *testing.T, k *Kernel, check func(barrier int)) (Result, int) {
	t.Helper()
	barriers := 0
	for {
		k.PauseAfter(k.Position() + 1)
		res, err := k.Run()
		if err == nil {
			return res, barriers
		}
		if !errors.Is(err, ErrPaused) {
			t.Fatal(err)
		}
		barriers++
		check(barriers)
	}
}

// WatchIdle calls fn with every idle core of the deciding domain at every
// scheduling decision of k. It is the hook package core_test uses to
// check what idle cores advertise under the bundled policies; fn runs on
// the worker driving the domain.
func WatchIdle(k *Kernel, fn func(c *Core)) {
	k.onPick = func(d *domain, _ vtime.Time, _ *Core, _ vtime.Time, _ int) {
		for _, c := range d.cores {
			if c.idle {
				fn(c)
			}
		}
	}
}

// EquivWorkload injects the randomized task soup of the equivalence
// suites (equivWorkload) for package core_test.
func EquivWorkload(k *Kernel, seed int64, tasks int) { equivWorkload(k, seed, tasks) }
