package core

import (
	"errors"
	"fmt"
	"testing"

	"simany/internal/vtime"
)

// Test-side policy wrappers and reference oracles for the engine paths.
//
// The kernel picks its scheduler and effective-time scheme from the
// policy's capabilities alone (ShardLocalPolicy selects the indexed
// runnable queue, IdleRelayPolicy lazy evaluation), so the equivalence
// suites reach the reference paths through wrappers that hide some of
// Spatial's capabilities. Methods are forwarded explicitly: embedding
// Spatial would promote all of them. The wrappers are exported so the
// external selection test can name them too.

// IndexEager is Spatial on the indexed scheduler with the eager flood
// (no IdleRelay). Being shard-local, it also drives the sharded engine.
type IndexEager struct{ P Spatial }

func (w IndexEager) Name() string                { return w.P.Name() }
func (w IndexEager) Horizon(c *Core) vtime.Time  { return w.P.Horizon(c) }
func (w IndexEager) IdleTime(c *Core) vtime.Time { return w.P.IdleTime(c) }
func (w IndexEager) ShardLocal() bool            { return w.P.ShardLocal() }

// ScanEager is Spatial on the reference scan with the eager flood; not
// being shard-local, it always runs on the sequential engine.
type ScanEager struct{ P Spatial }

func (w ScanEager) Name() string                { return w.P.Name() }
func (w ScanEager) Horizon(c *Core) vtime.Time  { return w.P.Horizon(c) }
func (w ScanEager) IdleTime(c *Core) vtime.Time { return w.P.IdleTime(c) }

// ScanLazy is Spatial on the reference scan with lazy effective times:
// the off-diagonal of the two selections (sequential engine only).
type ScanLazy struct{ P Spatial }

func (w ScanLazy) Name() string                  { return w.P.Name() }
func (w ScanLazy) Horizon(c *Core) vtime.Time    { return w.P.Horizon(c) }
func (w ScanLazy) IdleTime(c *Core) vtime.Time   { return w.P.IdleTime(c) }
func (w ScanLazy) IdleRelay() (vtime.Time, bool) { return w.P.IdleRelay() }

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
//   - under lazy evaluation, every stalled core of the picking domain
//     must see the same lazyMinNeighborEff as a domain-local reference
//     fixpoint recomputed from the anchors (busy cores' maintained
//     times and the frozen cross-shard proxies).
//
// onPick runs on the worker driving the domain, so divergences are
// recorded per domain rather than failing the test from that goroutine.
type pickOracle struct {
	picks [][]pickRec
	check bool
	errs  []error
	delta vtime.Time   // the policy's relay increment
	ref   []vtime.Time // reference fixpoint by core ID; domains write disjoint slots
	seen  []int64      // checked decisions per domain
}

// watchPicks installs a pickOracle on k (recording only, or recording and
// checking) and returns it.
func watchPicks(k *Kernel, check bool) *pickOracle {
	o := &pickOracle{
		picks: make([][]pickRec, k.NumShards()),
		check: check,
		errs:  make([]error, k.NumShards()),
		ref:   make([]vtime.Time, k.NumCores()),
		seen:  make([]int64, k.NumShards()),
	}
	if p, ok := k.policy.(IdleRelayPolicy); ok {
		o.delta, _ = p.IdleRelay()
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
	if d.k.effLazy {
		o.errs[d.id] = o.checkLazy(d)
	}
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

// checkLazy compares every stalled core's lazily reconstructed
// neighborhood minimum with the reference fixpoint.
func (o *pickOracle) checkLazy(d *domain) error {
	o.fixpoint(d)
	for _, c := range d.cores {
		if c.current == nil {
			continue
		}
		if got, want := d.lazyMinNeighborEff(c), o.minNeighbor(d, c); got != want {
			return fmt.Errorf("domain %d: stalled core %d lazy neighborhood min %v, reference %v", d.id, c.ID, got, want)
		}
	}
	return nil
}

// fixpoint recomputes the domain-local shadow-time fixpoint into o.ref by
// plain relaxation: busy cores anchor at their maintained times, idle
// cores start at Inf and fall to min(neighbors) + delta, with foreign
// neighbors read through the frozen proxies. With no busy core the domain
// has no anchor and every idle core advertises Inf.
func (o *pickOracle) fixpoint(d *domain) {
	k := d.k
	busy := false
	for _, c := range d.cores {
		o.ref[c.ID] = vtime.Inf
		if !c.idle {
			o.ref[c.ID] = k.eff[c.ID]
			busy = true
		}
	}
	for changed := busy; changed; {
		changed = false
		for _, c := range d.cores {
			if !c.idle {
				continue
			}
			if v := satAdd(o.minNeighbor(d, c), o.delta); v < o.ref[c.ID] {
				o.ref[c.ID] = v
				changed = true
			}
		}
	}
}

// minNeighbor is the reference neighborhood minimum of c.
func (o *pickOracle) minNeighbor(d *domain, c *Core) vtime.Time {
	k := d.k
	m := vtime.Inf
	for j, nbID := range c.neighbors {
		var e vtime.Time
		if k.cores[nbID].dom == d {
			e = o.ref[nbID]
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
