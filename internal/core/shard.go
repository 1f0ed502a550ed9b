package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"simany/internal/vtime"
)

// The sharded engine runs the partitioned machine in rounds:
//
//  1. Round setup (single-threaded): find the globally minimal runnable
//     virtual-time key and set the round limit = minKey + quantum.
//  2. Round (parallel): every domain drives its own pickCore/step loop,
//     scheduling only cores whose key does not exceed the limit. All
//     horizons are capped at the limit, so no core outruns the frozen
//     cross-shard proxies by more than the quantum. Cross-shard messages
//     and state mutations are appended to the executing shard's outbox.
//  3. Barrier (single-threaded): outboxes are merged, sorted by
//     (stamp, src, idx) and applied — messages are routed and handled,
//     deferred operations run. This order depends only on virtual time and
//     topology, never on host scheduling, which is what makes the engine
//     deterministic for a fixed shard count.
//  4. Effective-time refresh (single-threaded): idle shadow times are
//     recomputed globally so the next round starts from consistent
//     proxies.
//
// Progress: the domain owning the minimal key always schedules at least
// one step per round, and every step advances bounded virtual state, so
// rounds terminate and the simulation advances.

// shardStepBudget bounds the scheduling steps one domain may take per
// round, per owned core. It is a deterministic backstop against
// pathological rounds; the quantum is the primary round bound.
const shardStepBudget = 64

// runShard drives the sharded parallel engine. Trace buffers are flushed
// (merged and handed to the tracer) at every barrier and on every exit
// path, so a Recorder sees the complete stream even when the run aborts.
func (k *Kernel) runShard() (Result, error) {
	for {
		if err := k.takePanic(); err != nil {
			k.flushTrace()
			return Result{}, err
		}
		if k.maxSteps > 0 && k.steps.Load() >= k.maxSteps {
			k.flushTrace()
			return Result{}, fmt.Errorf("core: exceeded %d scheduling steps", k.maxSteps)
		}
		minKey := k.minRunnableKey()
		if minKey == vtime.Inf {
			if k.liveTasks() == 0 {
				return k.result(), nil
			}
			return Result{}, k.deadlockError()
		}
		limit := vtime.Inf
		if minKey < vtime.Inf-k.quantum {
			limit = minKey + k.quantum
		}
		k.runRound(limit)
		k.drainBarrier()
		k.refreshEff()
		if k.met != nil {
			k.recordBarrier(minKey, limit)
		}
		k.flushTrace()
		if k.bcheck != nil {
			if err := k.barrierInvariants(); err != nil {
				return Result{}, err
			}
		}
		k.barriers++
		if k.stopAfter > 0 && k.barriers >= k.stopAfter {
			// The barrier sequence above has fully quiesced the machine:
			// outboxes drained, proxies refreshed, traces flushed. This is
			// the one point where a checkpoint is legal.
			k.paused = true
			return k.result(), ErrPaused
		}
	}
}

// minRunnableKey returns the globally minimal runnable virtual-time key —
// the anchor of the next round's window. With the indexed scheduler this
// is a peek over the per-domain heap heads, O(shards) instead of a full
// machine scan; barriers run the queues' invalidation hooks (drained
// items, effective-time refresh) before this is called, so every head is
// settled.
func (k *Kernel) minRunnableKey() vtime.Time {
	minKey := vtime.Inf
	for _, d := range k.domains {
		if d.rq == nil {
			if _, key, n := d.scanRunnable(vtime.Inf); n > 0 && key < minKey {
				minKey = key
			}
			continue
		}
		head, hKey := d.indexedHead()
		if head != nil && hKey < minKey {
			minKey = hKey
		}
	}
	return minKey
}

// runRound executes one bounded scheduling round on every domain,
// fanning the domains out over the worker pool.
func (k *Kernel) runRound(limit vtime.Time) {
	for _, d := range k.domains {
		d.limit = limit
		d.roundSteps = 0
	}
	if k.workers <= 1 {
		for _, d := range k.domains {
			d.runLocal(limit)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		wg.Add(k.workers)
		for w := 0; w < k.workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(k.domains) {
						return
					}
					k.domains[i].runLocal(limit)
				}
			}()
		}
		wg.Wait()
	}
	for _, d := range k.domains {
		d.limit = vtime.Inf
	}
}

// runLocal is one domain's share of a round: schedule local cores with
// keys inside the round limit until none remain (or the step budget runs
// out). Identical to the sequential loop, restricted to owned cores.
func (d *domain) runLocal(limit vtime.Time) {
	budget := shardStepBudget * len(d.cores)
	for d.roundSteps < budget {
		c := d.pickCore(limit)
		if c == nil {
			return
		}
		d.roundSteps++
		d.step(c)
		// Stop early once the global step cap is exceeded; the round loop
		// turns this into the MaxSteps error. (Successful runs never reach
		// the cap, so this early exit cannot perturb their results.)
		if d.k.maxSteps > 0 && d.k.steps.Load() >= d.k.maxSteps {
			return
		}
	}
}

// drainBarrier merges all shard outboxes and applies the deferred items in
// deterministic (stamp, src, idx) order. Handlers run synchronously here
// — any messages or operations they trigger apply immediately, exactly as
// on the sequential engine.
//
//simany:barrier
func (k *Kernel) drainBarrier() {
	// The merge buffer is kernel scratch, reused across rounds so steady
	// state allocates nothing.
	items := k.barrierItems[:0]
	for _, d := range k.domains {
		items = append(items, d.outbox...)
		// The outbox backing array is per-round scratch too: drop its
		// payload/closure references so only the merge buffer pins them.
		clear(d.outbox)
		d.outbox = d.outbox[:0]
	}
	if len(items) == 0 {
		k.barrierItems = items
		return
	}
	// (stamp, src, idx) is a total order: src fixes the producing outbox
	// and idx is the unique append position within it.
	slices.SortFunc(items, func(a, b deferredItem) int {
		if c := cmp.Compare(a.stamp, b.stamp); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	k.inBarrier = true
	for i := range items {
		if items[i].isMsg {
			// sendNow routes the message (computing Arrival) and handles
			// it; validation sees the routed form.
			routed := k.sendNow(items[i].msg)
			if k.bcheck != nil {
				k.bcheck.recordMsg(routed)
			}
		} else {
			items[i].op()
		}
	}
	k.inBarrier = false
	// Drop payload and closure references before the next round so the
	// reused backing array does not pin handled items for the GC.
	clear(items)
	k.barrierItems = items[:0]
}

// Refresh marks (Kernel.effMark): set for the duration of one refreshEff
// and cleared before it returns.
const (
	markBusy   uint8 = 1 << iota // the core anchors the relaxation at its clock
	markQueued                   // the core sits in the relaxation ring
)

// refreshEff rebuilds every core's advertised effective time and all
// neighbor proxies from global state: busy cores anchor at their clocks,
// idle cores relax downward from Inf through the relay rule
// (min(neighbors) + Kernel.relayDelta) until the (unique) fixpoint.
// Running it single-threaded at each barrier restores the cross-shard
// proxies that stayed frozen during the round.
//
// It works on the flat state (Kernel.eff, adj, nbEff) and touches Core
// structs only for busy cores (taken from the per-domain busy lists) and
// for the stalled cores whose proxies changed:
//
//  1. eff := Inf everywhere, then each busy core's clock.
//  2. Relax a FIFO worklist seeded with the idle neighbors of busy cores
//     — the only cores whose value can drop below Inf first — in pull
//     form: an idle core recomputes its value from its neighbors' eff,
//     and an improvement enqueues the idle neighbors not already queued
//     that it could still improve (relaxIdle). The fixpoint does not
//     depend on the order.
//  3. Gather every proxy, nbEff[e] = eff[adj[e]], noting first which
//     stalled cores see a changed proxy.
//  4. Rebuild the lazy bookkeeping in O(busy + cut edges) per domain,
//     then post one schedUpdate per stalled core noted in step 3 — the
//     only runnability input the refresh moves. Picks break ties on
//     (key, ID), a total order, so neither the number nor the order of
//     these updates can change a pick.
func (k *Kernel) refreshEff() {
	eff, nbEff := k.eff, k.nbEff
	for i := range eff {
		eff[i] = vtime.Inf
	}
	busy := 0
	for _, d := range k.domains {
		busy += d.busy
	}
	if busy == 0 {
		for e := range nbEff {
			nbEff[e] = vtime.Inf
		}
		for _, d := range k.domains {
			d.resetLazyIdle()
		}
		return
	}
	if k.effMark == nil {
		k.effMark = make([]uint8, len(eff))
		// A core sits in the ring at most once at a time.
		k.effRing = make([]int32, len(eff))
	}
	// Step 1 (the Inf reset ran above): anchor the busy cores.
	mark, adj, off := k.effMark, k.adj, k.adjOff
	for _, d := range k.domains {
		for _, b := range d.busyList {
			eff[b] = k.cores[b].vt
			mark[b] = markBusy
		}
	}
	k.relaxIdle()

	// Step 3: note the stalled cores whose proxies move, then gather.
	stalled := k.effStalled[:0]
	for _, d := range k.domains {
		for _, b := range d.busyList {
			mark[b] = 0
			c := k.cores[b]
			if c.current == nil {
				continue
			}
			for e := off[b]; e < off[b+1]; e++ {
				if nbEff[e] != eff[adj[e]] {
					stalled = append(stalled, c)
					break
				}
			}
		}
	}
	for e, nb := range adj {
		nbEff[e] = eff[nb]
	}

	// Step 4: lazy bookkeeping, then the scheduler updates, which may
	// read it.
	for _, d := range k.domains {
		d.rebuildLazyFromRefresh()
	}
	for _, c := range stalled {
		// Unfrozen cross-shard proxies move the stalled core's horizon;
		// re-evaluate its queue entry (the only runnability input not
		// already settled by step/queue hooks).
		c.dom.schedUpdate(c)
	}
	clear(stalled)
	k.effStalled = stalled[:0]
}

// relaxIdle is step 2 of refreshEff: with busy cores marked and anchored
// in Kernel.eff and every idle core at Inf, it lowers the idle cores to
// the relay fixpoint through a FIFO ring of core IDs. Every queued mark
// it sets is cleared again. An infinite relay pops each seed once and
// changes nothing.
func (k *Kernel) relaxIdle() {
	eff, mark, ring := k.eff, k.effMark, k.effRing
	adj, off := k.adj, k.adjOff
	delta := k.relayDelta
	n := len(ring)
	head, tail, queued := 0, 0, 0
	push := func(c int32) {
		mark[c] |= markQueued
		ring[tail] = c
		if tail++; tail == n {
			tail = 0
		}
		queued++
	}
	for _, d := range k.domains {
		for _, b := range d.busyList {
			for _, nb := range adj[off[b]:off[b+1]] {
				if mark[nb] == 0 {
					push(nb)
				}
			}
		}
	}
	for ; queued > 0; queued-- {
		c := ring[head]
		if head++; head == n {
			head = 0
		}
		mark[c] &^= markQueued
		m := vtime.Inf
		for _, nb := range adj[off[c]:off[c+1]] {
			if eff[nb] < m {
				m = eff[nb]
			}
		}
		e := satAdd(m, delta)
		if e >= eff[c] {
			continue
		}
		eff[c] = e
		// A neighbor can only improve through c if e+delta beats its
		// current value; skipping the others (c's own predecessors, above
		// all) halves the pops on a sparse machine.
		via := satAdd(e, delta)
		for _, nb := range adj[off[c]:off[c+1]] {
			if mark[nb] == 0 && via < eff[nb] {
				push(nb)
			}
		}
	}
}
