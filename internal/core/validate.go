package core

import (
	"fmt"

	"simany/internal/vtime"
)

// Validate checks the kernel's internal invariants and returns the first
// violation found, or nil. It is intended for tests and for debugging
// custom policies or memory systems: install it behind a Tracer (see
// ValidatingTracer) to check consistency continuously during a run.
//
// Checked invariants:
//   - each domain's busy list partitions its cores against their idle
//     flags, with exact back-pointers;
//   - the lazy effective times: the pruning floor lower-bounds every
//     anchor (busy cores and frozen foreign proxies), and every fresh
//     idle memo — stamped, or seeded by the last barrier through the
//     domain's seed epoch — equals an independently recomputed relay
//     fixpoint;
//   - a busy core never advertises a time ahead of its own clock;
//   - the cached minimum birth stamp matches the birth map;
//   - the cached queue minima (ready arrivals, continuation resumes)
//     match a recomputation from the queues;
//   - with the indexed scheduler active: heap positions, heap order and
//     queue membership/keys agree with the reference runnable computation
//     (the mid-step core excepted — its entry settles at step end);
//   - lock depths are non-negative;
//   - task states are consistent with the queue each task sits in;
//   - the busy-core counter matches the per-core idle flags;
//   - with EnableBarrierValidation armed: per-(src,dst) FIFO stamps at
//     barrier merges and the global drift bound (barriercheck.go).
func (k *Kernel) Validate() error {
	busy := 0
	for _, c := range k.cores {
		if !c.idle {
			busy++
			// Virtual-time updates propagate at yield points, so a busy
			// core's advertised time may lag its clock mid-step — but it
			// must never lead it.
			if e := k.eff[c.ID]; e > c.vt {
				return fmt.Errorf("core %d: busy but advertises future time %v (clock %v)", c.ID, e, c.vt)
			}
			if c.busyPos < 0 {
				return fmt.Errorf("domain %d: busy core %d missing from busy list", c.dom.id, c.ID)
			}
		} else if c.busyPos >= 0 {
			return fmt.Errorf("domain %d: idle core %d claims busy-list slot %d", c.dom.id, c.ID, c.busyPos)
		}
		if c.lockDepth < 0 {
			return fmt.Errorf("core %d: negative lock depth %d", c.ID, c.lockDepth)
		}
		min := vtime.Inf
		for _, b := range c.births {
			if b < min {
				min = b
			}
		}
		if got := c.minBirth(); got != min {
			return fmt.Errorf("core %d: birth cache %v, map minimum %v", c.ID, got, min)
		}
		rm := vtime.Inf
		for _, t := range c.ready {
			if t.arrival < rm {
				rm = t.arrival
			}
		}
		if got := c.minReadyArrival(); got != rm {
			return fmt.Errorf("core %d: ready-min cache %v, queue minimum %v", c.ID, got, rm)
		}
		cm := vtime.Inf
		for _, t := range c.conts {
			if t.resume < cm {
				cm = t.resume
			}
		}
		if got := c.minContResume(); got != cm {
			return fmt.Errorf("core %d: conts-min cache %v, queue minimum %v", c.ID, got, cm)
		}
		if c.current != nil && c.current.state != TaskRunning {
			return fmt.Errorf("core %d: current task %q in state %d", c.ID, c.current.Name, c.current.state)
		}
		for _, t := range c.conts {
			if t.state != TaskReady {
				return fmt.Errorf("core %d: continuation %q in state %d", c.ID, t.Name, t.state)
			}
		}
		for _, t := range c.ready {
			if t.state != TaskReady {
				return fmt.Errorf("core %d: queued task %q in state %d", c.ID, t.Name, t.state)
			}
		}
	}
	tracked := 0
	for _, d := range k.domains {
		tracked += d.busy
	}
	if busy != tracked {
		return fmt.Errorf("busy-core counter %d, actual %d", tracked, busy)
	}
	for _, d := range k.domains {
		if len(d.busyList) != d.busy {
			return fmt.Errorf("domain %d: busy list holds %d cores, counter says %d", d.id, len(d.busyList), d.busy)
		}
		for i, id := range d.busyList {
			c := k.cores[id]
			if c.idle || c.dom != d {
				return fmt.Errorf("domain %d: idle or foreign core %d on busy list", d.id, id)
			}
			if c.busyPos != i {
				return fmt.Errorf("domain %d: core %d busy-list back-pointer %d, actual slot %d", d.id, id, c.busyPos, i)
			}
		}
	}
	if err := k.checkLazyEff(); err != nil {
		return err
	}
	for _, d := range k.domains {
		for id, t := range d.blocked {
			if t.state != TaskBlocked {
				return fmt.Errorf("blocked registry holds task %d in state %d", id, t.state)
			}
		}
	}
	for _, d := range k.domains {
		if err := d.checkRunq(); err != nil {
			return err
		}
	}
	// With barrier validation armed (EnableBarrierValidation), surface any
	// FIFO violation recorded at a barrier merge and re-check the global
	// drift bound with the caller's slack.
	if k.bcheck != nil {
		if err := k.bcheck.err; err != nil {
			return err
		}
		if err := k.CheckDriftBound(k.bcheck.slack); err != nil {
			return err
		}
	}
	return nil
}

// checkLazyEff verifies the lazy effective-time bookkeeping (efflazy.go):
// the pruning floors lower-bound every anchor, the cut-edge list names
// exactly the domain's cross-shard proxy slots, and every fresh memo —
// stamped by lazyEff or seeded by the last barrier — matches an
// independently recomputed relay fixpoint over the domain (anchored at
// busy cores and frozen foreign proxies — exactly the inputs lazyFix
// reads).
func (k *Kernel) checkLazyEff() error {
	// coreID-indexed scratch for the reference fixpoint.
	fix := make([]vtime.Time, len(k.cores))
	for _, d := range k.domains {
		for _, id := range d.busyList {
			if e := k.eff[id]; e < d.effFloor {
				return fmt.Errorf("domain %d: floor %v above busy core %d anchor %v", d.id, d.effFloor, id, e)
			}
		}
		if d.frozenFloor < d.effFloor {
			return fmt.Errorf("domain %d: floor %v above frozen-proxy floor %v", d.id, d.effFloor, d.frozenFloor)
		}
		cut := 0
		for _, c := range d.cores {
			idleNb := int32(0)
			for j, nbID := range c.neighbors {
				nb := k.cores[nbID]
				if nb.dom != d {
					if cut >= len(d.cutEdges) || int(d.cutEdges[cut]) != int(k.adjOff[c.ID])+j {
						return fmt.Errorf("domain %d: cut-edge list misses core %d's proxy slot for foreign neighbor %d", d.id, c.ID, nbID)
					}
					cut++
					if p := c.proxies()[j]; p < d.frozenFloor {
						return fmt.Errorf("domain %d: frozen-proxy floor %v above core %d's proxy %v for foreign neighbor %d",
							d.id, d.frozenFloor, c.ID, p, nbID)
					}
				} else if nb.idle {
					idleNb++
				}
			}
			if c.idleNb != idleNb {
				return fmt.Errorf("domain %d: core %d idle-neighbor count %d, actual %d", d.id, c.ID, c.idleNb, idleNb)
			}
		}
		if cut != len(d.cutEdges) {
			return fmt.Errorf("domain %d: cut-edge list holds %d slots, partition has %d", d.id, len(d.cutEdges), cut)
		}
		// Reference fixpoint: seed anchors, relax idle cores downward
		// through local idle paths only. Frozen foreign proxies enter as
		// leaf anchors via nbEff, never as relaxation targets — mirroring
		// what lazyFix is allowed to read.
		for _, c := range d.cores {
			if c.idle {
				fix[c.ID] = vtime.Inf
			} else {
				fix[c.ID] = k.eff[c.ID]
			}
		}
		for changed := true; changed; {
			changed = false
			for _, c := range d.cores {
				if !c.idle {
					continue
				}
				m := vtime.Inf
				for j, nbID := range c.neighbors {
					nb := k.cores[nbID]
					var e vtime.Time
					if nb.dom != d {
						e = c.proxies()[j]
					} else {
						e = fix[nbID]
					}
					if e < m {
						m = e
					}
				}
				if e := satAdd(m, k.relayDelta); e < fix[c.ID] {
					fix[c.ID] = e
					changed = true
				}
			}
		}
		seeded := d.seedEpoch == d.effEpoch
		for _, c := range d.cores {
			if !c.idle || (c.effStamp != d.effEpoch && !seeded) {
				continue
			}
			// Fresh memos come from lazyFix (anchored at local busy cores
			// and frozen proxies) or from barrier seeding (the global
			// fixpoint, which path-decomposes to the same local relaxation).
			// Either way they must match the reference value.
			if e := k.eff[c.ID]; e != fix[c.ID] {
				how := "memo"
				if seeded {
					how = "seeded memo"
				}
				return fmt.Errorf("domain %d: idle core %d %s %v, relay fixpoint %v", d.id, c.ID, how, e, fix[c.ID])
			}
		}
	}
	return nil
}

// ValidatingTracer runs Kernel.Validate every Interval trace events and
// panics on the first violation, pinpointing the event that exposed it.
// Wrap another tracer to keep recording. It is safe on the sharded engine:
// tracer callbacks run single-threaded at each barrier, after the
// effective-time refresh, exactly when the same-shard invariants Validate
// checks are supposed to hold.
type ValidatingTracer struct {
	K        *Kernel
	Interval uint64
	Next     Tracer

	count uint64
}

// Trace implements Tracer.
func (v *ValidatingTracer) Trace(ev TraceEvent) {
	if v.Next != nil {
		v.Next.Trace(ev)
	}
	v.count++
	interval := v.Interval
	if interval == 0 {
		interval = 1
	}
	if v.count%interval == 0 {
		if err := v.K.Validate(); err != nil {
			panic(fmt.Sprintf("core: invariant violation at trace event %d (%s): %v",
				ev.Seq, ev.Kind, err))
		}
	}
}
