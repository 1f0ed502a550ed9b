package core

import "simany/internal/vtime"

// Policy is a virtual-time synchronization scheme. The kernel consults it
// to decide how far a core may advance before yielding control (Horizon)
// and how an idle core relays its neighbors' effective times (IdleRelay).
//
// The spatial synchronization of the paper is implemented by Spatial;
// package drift provides the related-work alternatives (global quantum,
// bounded slack, LaxP2P, unbounded) behind the same interface.
type Policy interface {
	// Name identifies the policy in results and traces.
	Name() string
	// Horizon returns the largest virtual time core c may reach before it
	// must yield back to the kernel. Crossing the horizon mid-block is
	// allowed (annotation blocks are atomic); the core then stalls until
	// the horizon moves past its clock.
	Horizon(c *Core) vtime.Time
	// IdleRelay returns the per-hop relay increment delta ≥ 0 of the
	// idle-core rule (§II.A): an idle core advertises the minimum of its
	// neighbors' effective times plus delta, Inf when no neighbor
	// advertises a finite time. Spatial relays by T; policies without a
	// shadow-time concept return vtime.Inf, so idle cores never constrain
	// anyone. The kernel evaluates idle regions lazily from this constant
	// (efflazy.go); New panics on a negative delta.
	IdleRelay() vtime.Time
}

// ShardLocalPolicy is implemented by policies whose Horizon is a pure
// function of the core's neighbor effective times, its outstanding
// birth stamps and its lock depth: no reads of global machine
// state and no side effects (no RNG draws, no metric probes). That one
// capability selects both fast paths. Such a policy can drive the sharded
// parallel engine, and its horizons may be cached between the events that
// change those inputs, so the kernel schedules through the indexed
// runnable queue (sched.go). A policy that does not implement the
// interface (or returns false) runs on the sequential engine with the
// reference scan, which evaluates Horizon for every stalled core at every
// pick, regardless of Config.Shards.
type ShardLocalPolicy interface {
	ShardLocal() bool
}

// Spatial is the paper's spatial synchronization: a core may drift at most
// T ahead of the slowest of its topological neighbors (and of the birth
// stamps of tasks it has spawned that have not started yet). Idle cores
// maintain a shadow time of min(neighbors)+T.
type Spatial struct {
	// T is the maximum local drift (100 cycles in the paper's reference
	// configuration).
	T vtime.Time
}

// Name implements Policy.
func (s Spatial) Name() string { return "spatial" }

// ShardLocal implements ShardLocalPolicy: spatial decisions consult only
// neighbor proxies, local birth stamps and the lock depth.
func (s Spatial) ShardLocal() bool { return true }

// IdleRelay implements Policy: an idle core's shadow time is the minimum
// neighbor effective time plus T.
func (s Spatial) IdleRelay() vtime.Time { return s.T }

// Horizon implements Policy.
func (s Spatial) Horizon(c *Core) vtime.Time {
	if c.lockDepth > 0 {
		// Lock-holder exemption (§II.B): run until the lock is released.
		return vtime.Inf
	}
	m := c.minNeighborEff()
	if b := c.minBirth(); b < m {
		m = b
	}
	if m == vtime.Inf {
		return vtime.Inf
	}
	return m + s.T
}
