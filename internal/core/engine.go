package core

import (
	"simany/internal/network"
	"simany/internal/vtime"
)

// The kernel executes on one of two engines:
//
//   - the sequential engine (seq.go): one scheduling loop over all cores,
//     exactly the original SiMany kernel;
//   - the sharded engine (shard.go): the topology is partitioned into
//     contiguous shards (topology.Partition), each driven by its own local
//     pickCore/step loop, with cross-shard traffic exchanged through
//     per-shard mailboxes drained at deterministic round barriers.
//
// Both engines schedule through the same per-domain machinery below: a
// domain is one schedulable partition of the machine (the whole machine for
// the sequential engine) owning its cores' queues, its yield channel and
// its share of the bookkeeping.

// domain is one execution shard: the unit of host-side scheduling.
type domain struct {
	k     *Kernel
	id    int
	cores []*Core // owned cores, ascending ID

	yieldCh chan yieldInfo
	blocked map[uint64]*Task
	live    int64 // live tasks resident in this domain
	maxTime vtime.Time
	busy    int //simany:derived non-idle core count, recounted from idle flags after decode

	// limit caps every horizon handed to tasks of this domain while a shard
	// round is in progress (Inf on the sequential engine and between
	// rounds): cross-shard effective-time proxies are frozen during a
	// round, so local progress must not outrun the round quantum.
	//
	//simany:derived transient round state; checkpoints happen at barriers where limit is reset
	limit vtime.Time

	// rq is the indexed runnable queue (sched.go); nil when the domain
	// schedules through the reference scan (a policy that is not
	// ShardLocalPolicy). stepping is the core currently inside
	// step, whose index entry is transient until the step completes.
	rq       *runq //simany:derived runnable heap, rebuilt by schedRebuild after decode
	stepping *Core //simany:derived transient mid-step marker, nil at every barrier

	// Host-parallelism potential sampling (§VIII).
	runnableSum     int64
	runnableSamples int64
	runnableMax     int

	// busyList holds the IDs of the domain's busy cores (Core.busyPos is
	// each one's slot), maintained at every busy/idle flip: the barrier
	// refresh anchors on it, and lazy evaluation treats it as the
	// frontier anchor set.
	busyList []int32 //simany:derived busy-core list, rebuilt from idle flags after decode

	// Lazy effective-time state (efflazy.go): the memo-invalidation
	// epochs, the exact/conservative anchor floors and the stalled-core
	// scheduling heap of the indexed scheduler.
	sq       *stallq //simany:derived stalled-core heap, rebuilt by schedRebuild after decode
	effEpoch uint64  //simany:derived memo invalidation epoch, bumping it after decode discards all memos
	// seedEpoch is the effEpoch at which a barrier seeded every idle
	// memo at once from the refreshed Kernel.eff: while the two are
	// equal, every idle core's memo is fresh regardless of its stamp.
	seedEpoch uint64 //simany:derived barrier memo-seeding epoch, 0 (never fresh) until the next refresh
	// cutEdges lists the Kernel.nbEff slots of owned cores whose neighbor
	// belongs to another domain: the frozen cross-shard proxies.
	cutEdges []int32 //simany:derived immutable partition cut, rebuilt by setupEngine
	// shapeEpoch advances only when the anchor *set* changes (a busy/idle
	// flip, a barrier refresh) — never on pure value moves, which are
	// monotone. A stalled core's sticky runnable bit (Core.rnStamp) is
	// valid per shape epoch: within one, horizons can only rise, so a core
	// once observed runnable stays runnable until its own inputs change.
	shapeEpoch uint64 //simany:derived sticky-runnable invalidation epoch, bumped after decode like effEpoch
	effGen     uint64 //simany:derived lazyFix BFS visited generation, transient per query
	//simany:derived anchor lower bound for the BFS cutoff, recomputed at barriers/after decode
	effFloor vtime.Time
	//simany:derived lower bound over frozen cross-shard proxies, recomputed at barriers/after decode
	frozenFloor vtime.Time
	floorAge    int   //simany:derived staleness counter for the conservative floor, reset on recompute
	effScratch  []int //simany:derived reusable BFS ring buffer, empty between uses

	// Sharded-engine state: cross-shard traffic deferred to the next
	// barrier, and the step count of the current round.
	outbox     []deferredItem //simany:derived drained at every barrier, so empty at each checkpoint
	roundSteps int            //simany:derived transient per-round counter, reset when a round starts
	stepsTotal int64

	// Message-delivery statistics, owned by this domain: sendNow always
	// runs either on the worker driving the destination's shard or inside
	// the single-threaded barrier, so plain counters suffice and the state
	// stays reachable from the per-shard root for checkpointing.
	oooMsgs int64
	handled int64

	// Goroutine/struct pools for the task lifecycle hot path. Both are
	// owned-state in the shard-safety sense: pushed in step's yieldDone
	// branch and popped in startTask/NewTask, which all run in the owning
	// domain's execution context (or the single-threaded barrier). Worker
	// and Task pointer identity never feeds a scheduling decision, so
	// recycling cannot perturb determinism.
	freeWorkers []*taskWorker //simany:derived goroutine pool; parked workers are respawned by restoreParked
	freeTasks   []*Task       //simany:derived allocation pool; recycled identities never reach scheduling

	// Per-shard trace buffer: events emitted while this domain executes
	// (or, inside a barrier, events whose core this domain owns) are
	// appended here lock-free and merged deterministically by
	// Kernel.flushTrace at the next barrier. traceSeq is the per-shard
	// emission order, the merge's tie-break within (VT, Core).
	//simany:derived flushed by Kernel.flushTrace at every barrier, so empty at each checkpoint
	traceBuf []TraceEvent
	traceSeq uint64
}

// deferredItem is one unit of cross-shard traffic: either an architectural
// message to route and handle at the barrier, or an internal operation
// (state mutation on another shard's data). Items are drained in the
// deterministic order (stamp, src, idx) — virtual time first, source core
// for ties, then program order within one source shard.
type deferredItem struct {
	stamp vtime.Time
	src   int32
	idx   int32 // append position within the producing outbox
	isMsg bool
	msg   network.Message
	op    func()
}

func (d *domain) enqueueMsg(msg network.Message) {
	d.outbox = append(d.outbox, deferredItem{
		stamp: msg.Stamp, src: int32(msg.Src),
		idx: int32(len(d.outbox)), isMsg: true, msg: msg,
	})
}

func (d *domain) enqueueOp(src int, stamp vtime.Time, fn func()) {
	d.outbox = append(d.outbox, deferredItem{
		stamp: stamp, src: int32(src),
		idx: int32(len(d.outbox)), op: fn,
	})
}

// runnable reports whether core c can be scheduled now, and the virtual
// time key used to prioritize it.
func (d *domain) runnable(c *Core) (vtime.Time, bool) {
	k := d.k
	if c.current != nil {
		// Stalled mid-task: runnable when the horizon has moved past the
		// core's clock.
		if c.vt <= k.policy.Horizon(c) {
			return c.vt, true
		}
		return 0, false
	}
	if len(c.conts) == 0 && len(c.ready) == 0 {
		return 0, false
	}
	// Picking a task may move the clock forward (to the task's stamp);
	// starting is always allowed — the first block boundary enforces the
	// drift.
	key := c.vt
	if c.idle {
		key = c.minReadyArrival()
		if len(c.conts) > 0 && c.conts[0].resume < key {
			// The next task to run would be the head continuation, not the
			// earliest one — the queue is FIFO — but any queued stamp is a
			// valid wake-up key and the head is the cheapest O(1) choice,
			// matching the reference kernel.
			key = c.conts[0].resume
		}
	}
	return key, true
}

// scanRunnable is the reference scheduling decision: a linear scan over
// the domain's cores for the runnable core with the lowest virtual-time
// key not exceeding limit (ties broken by core ID), plus the count of
// runnable cores within the limit. It is the semantic definition the
// indexed queue must reproduce — kernels without an index schedule through
// it directly, and the equivalence tests replay it after every indexed
// pick.
func (d *domain) scanRunnable(limit vtime.Time) (best *Core, bestKey vtime.Time, count int) {
	bestKey = vtime.Inf
	for _, c := range d.cores {
		key, ok := d.runnable(c)
		if !ok || key > limit {
			continue
		}
		count++
		if best == nil || key < bestKey {
			best = c
			bestKey = key
		}
	}
	return best, bestKey, count
}

// pickCore selects the runnable core with the lowest virtual-time key not
// exceeding limit (deterministic; ties broken by core ID): the indexed
// decision (pickIndexed: the runq head and the on-demand stalled heap)
// when the domain has an index, the reference scan otherwise. It also samples how many cores were simultaneously
// runnable — the quantity behind the paper's §VIII observation that
// spatial synchronization leaves enough independently simulatable cores
// to keep a multi-core host busy.
func (d *domain) pickCore(limit vtime.Time) *Core {
	var best *Core
	var key vtime.Time
	var runnable int
	if d.rq == nil {
		best, key, runnable = d.scanRunnable(limit)
	} else {
		best, key, runnable = d.pickIndexed(limit)
	}
	if d.k.onPick != nil {
		d.k.onPick(d, limit, best, key, runnable)
	}
	if best != nil {
		d.runnableSamples++
		d.runnableSum += int64(runnable)
		if runnable > d.runnableMax {
			d.runnableMax = runnable
		}
	}
	return best
}

// step schedules one task segment on core c.
func (d *domain) step(c *Core) {
	k := d.k
	k.steps.Add(1)
	d.stepsTotal++
	// While the step runs, c's clock, queues and current task are in
	// flux; its index entry is settled by the schedUpdate at the end,
	// before the domain consults the queue again. The runq tolerates the
	// transient (it orders by the cached schedKey), but the stall heap
	// orders by the live clock, so c leaves it for the duration: mid-step
	// sifts of other cores must never compare against a moving key.
	d.stepping = c
	if d.sq != nil && c.stallPos >= 0 {
		d.sq.remove(c)
	}
	t := c.current
	switch {
	case t != nil:
		// Resume the stalled task in place.
	case len(c.conts) > 0:
		t = c.popCont()
		// Context switch to a joining task resuming execution (§V).
		c.vt = vtime.Max(c.vt, t.resume) + k.ctxSwitchCost
		c.stats.Switches++
		t.state = TaskRunning
		c.current = t
		k.emit(TraceTaskResume, c.vt, c.ID, t, 0)
	default:
		t = c.popReady()
		// Starting a task costs 10 cycles in addition to the transit time
		// of the spawn message (§V).
		c.vt = vtime.Max(c.vt, t.arrival) + k.taskStartCost
		c.stats.TaskStarts++
		t.state = TaskRunning
		c.current = t
		k.emit(TraceTaskStart, c.vt, c.ID, t, 0)
		if k.onTaskStart != nil {
			k.onTaskStart(c, t)
		}
	}
	if c.idle {
		c.idle = false
		d.busy++
	}
	d.effSite(c)

	// Hand control to the task's worker goroutine until it yields.
	t.env.horizon = k.horizonFor(c)
	if !t.started {
		t.started = true
		d.startTask(t)
	} else {
		t.cont <- struct{}{}
	}
	y := <-d.yieldCh

	switch y.kind {
	case yieldDone:
		t.state = TaskDone
		t.endVT = c.vt
		c.current = nil
		d.live--
		if c.vt > d.maxTime {
			d.maxTime = c.vt
		}
		k.emit(TraceTaskEnd, c.vt, c.ID, t, 0)
		d.releaseWorker(t)
	case yieldBlocked:
		t.state = TaskBlocked
		d.blocked[t.ID] = t
		c.current = nil
		k.emit(TraceTaskBlock, c.vt, c.ID, t, 0)
	case yieldStalled:
		// c.current stays set; the task resumes in place later.
		k.emit(TraceTaskStall, c.vt, c.ID, t, 0)
	}
	if c.current == nil && len(c.conts) == 0 && len(c.ready) == 0 {
		c.idle = true
		d.busy--
	}
	d.effSite(c)
	d.stepping = nil
	d.schedUpdate(c)
}

// startTask hands a fresh task its first execution slice: on a parked
// worker from the domain's free pool (LIFO, for cache warmth) when one is
// available, on a newly spawned worker otherwise.
func (d *domain) startTask(t *Task) {
	if n := len(d.freeWorkers); n > 0 {
		w := d.freeWorkers[n-1]
		d.freeWorkers[n-1] = nil
		d.freeWorkers = d.freeWorkers[:n-1]
		w.task = t
		t.worker = w
		t.cont = w.cont
		// The worker is parked in (or en route to) <-w.cont; the unbuffered
		// send both wakes it and orders the w.task write above.
		w.cont <- struct{}{}
		return
	}
	w := &taskWorker{cont: make(chan struct{}), task: t}
	t.worker = w
	t.cont = w.cont
	go w.loop()
}

// releaseWorker returns a finished task's worker to the pool and, if the
// task opted in via ReleaseOnDone, recycles its struct too. References held
// by the retired struct (body closure, Meta payload) are dropped so the
// pool never pins user data. Runs in the yieldDone branch of step — the
// owning domain's execution context.
func (d *domain) releaseWorker(t *Task) {
	d.freeWorkers = append(d.freeWorkers, t.worker)
	if t.release {
		*t = Task{}
		d.freeTasks = append(d.freeTasks, t)
	}
}
