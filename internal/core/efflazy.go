package core

import (
	"fmt"

	"simany/internal/vtime"
)

// Lazy idle-region effective time.
//
// The paper's idle-core rule (§II.A) has an idle core advertise the
// minimum of its neighbors' effective times plus a constant delta — the
// policy's IdleRelay: T for Spatial, Inf for the drift-comparison schemes,
// whose idle cores never constrain anyone. Pushing every change through
// the surrounding idle region until a fixpoint would make a task
// completion on a 100k-core machine with a handful of busy cores flood
// O(idle region) state. The machinery in this file inverts the direction:
// idle cores' effective times are *pulled* on demand from the busy
// frontier, so a completion touches O(1) state and the cost is paid only
// by the (few) cores whose horizon actually reads a shadow time.
//
// Representation. There is no materialized region structure: an idle
// region is implicit — the connected set of idle cores reachable from a
// queried core without crossing a busy core or the domain boundary. Its
// effective times are fully determined by the region's *frontier
// anchors*: the maintained effective times of local busy cores and the
// frozen cross-shard proxies held by the region's cores. The unique
// fixpoint of the relay rule assigns an idle core c
//
//	eff(c) = min over anchors a of  anchor(a) + delta·(hops(c,a) + 1)
//
// where hops counts idle cores on a shortest path from c to a that stays
// inside the domain's idle cores. domain.lazyFix computes exactly that by
// a ring-layered BFS from the queried core, with an aggressive cutoff: a
// lower bound on every anchor (domain.effFloor) prunes rings that cannot
// improve the best value found so far. Sparse machines terminate after
// one or two rings around the nearest busy core; an infinite delta
// terminates before the first ring.
//
// Memoization. Computed values are cached in the core's Kernel.eff slot
// and stamped with the domain's invalidation epoch (Core.effStamp vs
// domain.effEpoch). The epoch advances whenever any anchor of the domain
// changes — a busy core's maintained eff moved, a core flipped
// busy/idle, or a barrier refreshed the frozen proxies — so a stale memo
// is never served. Epoch bumps are O(1); nothing is flooded. A barrier
// seeds every idle memo at once by recording its epoch in
// domain.seedEpoch instead of stamping each core.
//
// Determinism. The lazy values equal the relay fixpoint exactly (the BFS
// computes the same shortest-path minimum a relaxation converges to), so
// scheduling decisions, traces and results are a pure function of
// (seed, shards). The equivalence tests machine-check this claim at every
// pick against a test-side fixpoint (eff_equiv_test.go), and
// Kernel.Validate recomputes the fixpoint and compares every fresh memo
// against it.
//
// Scheduling. The indexed scheduler splits the stalled cores by what
// their horizons read. A stalled core with no idle same-domain neighbor
// depends only on busy neighbors' maintained times (every change posts a
// schedUpdate from effSite's O(degree) neighbor pass) and frozen
// cross-shard proxies, so it keeps an exact cached key in the runq. Only
// the stalled cores adjacent to an idle region — whose horizons read
// shadow times that post no callbacks — move to a secondary per-domain
// heap ordered by (vt, ID) (stallq); every pick evaluates those on
// demand, with two memo layers (the per-epoch horizon memo and the
// sticky per-shape-epoch runnable bit) keeping repeated evaluations O(1).
// See docs/effective-time.md for the full design and cost model.

// setupRelay caches the policy's relay increment for the BFS and the
// barrier refresh and builds the landmark tables the BFS cutoff prunes
// with. An infinite relay never gets past the first ring, so it needs no
// landmarks.
func (k *Kernel) setupRelay() {
	k.relayDelta = k.policy.IdleRelay()
	if k.relayDelta < 0 {
		panic(fmt.Sprintf("core: policy %q relays idle shadows by a negative delta %v", k.policy.Name(), k.relayDelta))
	}
	if k.relayDelta < vtime.Inf {
		k.buildLandmarks()
	}
}

// effLandmarks is the number of landmark cores whose BFS hop-distance
// tables back the triangle-inequality anchor bounds in lazyFix. Corners
// of a mesh (which farthest-point sampling finds) make the bound exact
// for Manhattan geometry; four cover the hierarchical chiplet fabrics
// well. Purely a pruning aid — never affects results.
const effLandmarks = 4

// buildLandmarks precomputes hop distances from deterministically chosen
// landmark cores (farthest-point sampling from core 0, ties to the lowest
// ID) to every core. |dist_l(a) − dist_l(b)| lower-bounds the hop
// distance between a and b for any landmark l, and hop distance in turn
// lower-bounds the idle-restricted path length the relay rule telescopes
// over — which is what lets the lazy BFS stop as soon as the best anchor
// found beats every other anchor's provable minimum contribution.
// O(landmarks · (cores + links)) once at construction; the tables are
// derived state, rebuilt (not decoded) on restore.
func (k *Kernel) buildLandmarks() {
	n := len(k.cores)
	if n == 0 {
		return
	}
	k.lmDist = make([][]int32, 0, effLandmarks)
	queue := make([]int32, 0, n)
	next := 0
	for len(k.lmDist) < effLandmarks {
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[next] = 0
		queue = append(queue[:0], int32(next))
		for head := 0; head < len(queue); head++ {
			c := k.cores[queue[head]]
			for _, nbID := range c.neighbors {
				if dist[nbID] < 0 {
					dist[nbID] = dist[c.ID] + 1
					queue = append(queue, int32(nbID))
				}
			}
		}
		k.lmDist = append(k.lmDist, dist)
		// Farthest reached core (lowest ID on ties) seeds the next
		// landmark; on a mesh this walks the corners.
		far, farDist := 0, int32(0)
		for i, dv := range dist {
			if dv > farDist {
				far, farDist = i, dv
			}
		}
		next = far
	}
}

// satScale multiplies a non-negative per-hop delta by a hop count,
// saturating at Inf.
func satScale(delta vtime.Time, hops int) vtime.Time {
	if delta > 0 && vtime.Time(hops) > vtime.Inf/delta {
		return vtime.Inf
	}
	return delta * vtime.Time(hops)
}

// satAdd adds a non-negative cost to a virtual time, saturating at Inf
// (vtime.Inf is MaxInt64, so plain addition would wrap).
func satAdd(t, cost vtime.Time) vtime.Time {
	if t >= vtime.Inf-cost {
		return vtime.Inf
	}
	return t + cost
}

// effInvalidate advances the domain's invalidation epoch, discarding
// every idle-core memo at O(1) cost. Called whenever an anchor changed:
// a busy core's maintained eff moved, a core flipped busy/idle, or the
// frozen proxies were refreshed at a barrier.
func (d *domain) effInvalidate() {
	d.effEpoch++
}

// busyAdd registers c on the domain's busy list (it just turned busy).
func (d *domain) busyAdd(c *Core) {
	if c.busyPos >= 0 {
		return
	}
	c.busyPos = len(d.busyList)
	d.busyList = append(d.busyList, int32(c.ID))
}

// busyRemove unregisters c from the busy list (it just turned idle).
func (d *domain) busyRemove(c *Core) {
	if c.busyPos < 0 {
		return
	}
	last := len(d.busyList) - 1
	moved := d.busyList[last]
	d.busyList[c.busyPos] = moved
	d.k.cores[moved].busyPos = c.busyPos
	d.busyList = d.busyList[:last]
	c.busyPos = -1
}

// anchorRetired re-tightens the anchor floor after c left the busy list:
// if c's maintained eff defined the floor, the floor is recomputed exactly
// — a floor that is too low only slows the BFS cutoff, but this keeps it
// tight on the workloads that matter (one task retiring after another on
// the same few cores).
func (d *domain) anchorRetired(c *Core) {
	if d.k.eff[c.ID] <= d.effFloor {
		d.recomputeFloor()
	}
}

// recomputeFloor recomputes the exact anchor lower bound: the minimum
// maintained eff over the domain's busy cores and the frozen-proxy floor
// captured at the last barrier.
func (d *domain) recomputeFloor() {
	eff := d.k.eff
	m := d.frozenFloor
	for _, b := range d.busyList {
		if eff[b] < m {
			m = eff[b]
		}
	}
	d.effFloor = m
	d.floorAge = 0
}

// effSite runs at the two effective-time maintenance sites in
// domain.step (step start and step end). Instead of flooding, it
// maintains the frontier anchors — c's own advertised time, the busy list
// and the anchor floor — invalidates the memos when an anchor actually
// changed, and notifies the stalled same-domain neighbors whose horizons
// read c directly. O(degree), never O(region): the neighbor pass is what
// lets stalled cores with no idle neighbor keep exact runq keys
// (schedUpdate) instead of being re-evaluated at every pick.
func (d *domain) effSite(c *Core) {
	k := d.k
	if !c.idle {
		flipped := c.busyPos < 0
		if flipped {
			// Idle → busy: the core joins the frontier. Paths through it
			// are cut, so memos computed against the old region shape are
			// stale even when the advertised value happens to be unchanged
			// (the old value may itself have been a stale memo) — and
			// region horizons may move either way, so the shape epoch
			// drops every sticky runnable bit too.
			d.busyAdd(c)
			d.effInvalidate()
			d.shapeEpoch++
		}
		changed := k.eff[c.ID] != c.vt
		if changed {
			old := k.eff[c.ID]
			k.eff[c.ID] = c.vt
			d.effInvalidate()
			if old <= d.effFloor && c.vt > d.effFloor {
				// The floor-defining anchor moved up: the (now
				// conservative) floor stays valid, but age it so it is
				// re-tightened periodically instead of decaying forever.
				d.floorAge++
				if d.floorAge >= 16 && d.floorAge >= len(d.busyList) {
					d.recomputeFloor()
				}
			}
		}
		// Outside the change branch so a re-busy core whose advertised
		// value survived its idle spell still anchors the floor.
		if c.vt < d.effFloor {
			d.effFloor = c.vt
			d.floorAge = 0
		}
		if flipped || changed {
			for _, nbID := range c.neighbors {
				nb := k.cores[nbID]
				if nb.dom != d {
					continue
				}
				if flipped {
					nb.idleNb--
				}
				if nb.current != nil {
					d.schedUpdate(nb)
				}
			}
		}
		return
	}
	// Busy → idle: the core stops being an anchor; its slot in the memo
	// space is stale until the next lazy read recomputes it. Stalled
	// neighbors gain an idle neighbor and are re-routed to the stall heap.
	if c.busyPos >= 0 {
		d.busyRemove(c)
		d.anchorRetired(c)
		c.effStamp = 0
		d.effInvalidate()
		d.shapeEpoch++
		for _, nbID := range c.neighbors {
			nb := k.cores[nbID]
			if nb.dom != d {
				continue
			}
			nb.idleNb++
			if nb.current != nil {
				d.schedUpdate(nb)
			}
		}
	}
}

// lazyEff returns c's effective time: the core's maintained value while
// busy, the memoized (or freshly computed) region fixpoint while idle.
// With no local anchor (busy == 0), idle-only relay chains have no
// fixpoint and everyone advertises Inf.
func (d *domain) lazyEff(c *Core) vtime.Time {
	eff := d.k.eff
	if !c.idle {
		return eff[c.ID]
	}
	if d.busy == 0 {
		return vtime.Inf
	}
	if c.effStamp == d.effEpoch || d.seedEpoch == d.effEpoch {
		return eff[c.ID]
	}
	e := d.lazyFix(c)
	eff[c.ID] = e
	c.effStamp = d.effEpoch
	return e
}

// lazyFix computes the region fixpoint value for idle core c: a
// ring-layered BFS over the local idle cores around c, minimizing
// anchor + delta·(hops+1) over all frontier anchors (local busy cores
// and finite frozen cross-shard proxies). The ring index equals the hop
// count, so once best ≤ floor + delta·(ring+1) no farther anchor can
// improve the result and the search stops.
func (d *domain) lazyFix(c *Core) vtime.Time {
	k := d.k
	delta := k.relayDelta
	d.effGen++
	gen := d.effGen
	// The scratch ring buffer is domain-owned and reused across calls;
	// a cursor per ring keeps layers contiguous.
	q := d.effScratch[:0]
	q = append(q, c.ID)
	c.effSeen = gen
	best := vtime.Inf
	ringStart, ringEnd := 0, 1
	for depth := 0; ringStart < ringEnd; depth++ {
		cost := satScale(delta, depth+1)
		if satAdd(d.effFloor, cost) >= best {
			break
		}
		if best < vtime.Inf && !d.anchorCanImprove(c, depth, best) {
			break
		}
		for i := ringStart; i < ringEnd; i++ {
			cc := k.cores[q[i]]
			for j, nbID := range cc.neighbors {
				nb := k.cores[nbID]
				if nb.dom != d {
					// Cross-shard frontier: the frozen proxy cc holds for
					// nb is an anchor at this depth.
					if p := k.nbEff[int(k.adjOff[cc.ID])+j]; p != vtime.Inf {
						if v := satAdd(p, cost); v < best {
							best = v
						}
					}
					continue
				}
				if !nb.idle {
					// Local busy frontier: anchor at the maintained eff
					// (the value as of the core's last step boundary, not
					// the live clock).
					if v := satAdd(k.eff[nbID], cost); v < best {
						best = v
					}
					continue
				}
				if nb.effSeen != gen {
					nb.effSeen = gen
					q = append(q, nbID)
				}
			}
		}
		ringStart, ringEnd = ringEnd, len(q)
	}
	d.effScratch = q[:0]
	return best
}

// anchorCanImprove reports whether any frontier anchor could still beat
// best when the BFS is about to scan ring `depth`. Every anchor not yet
// credited sits at least depth+1 relay hops out — and at least its
// landmark distance bound (|dist_l(c) − dist_l(a)|, a hop-count lower
// bound by the triangle inequality, and idle-restricted paths are never
// shorter than unrestricted ones) — so its contribution is at least
// a.eff + max(bound, depth+1)·delta. Frozen cross-shard proxies are
// bounded by the barrier-exact frozenFloor at depth+1 hops. The
// per-anchor terms of anchors already credited to best understate their
// real contribution, which only makes the answer conservatively true —
// the cutoff can never prune a better anchor, so lazyFix stays exact.
//
// The aggregate floor cutoff in lazyFix already handled the cheap case;
// this O(frontier) scan is what keeps the BFS radius independent of how
// far the *globally* slowest anchor has drifted: a distant lagging task
// prunes here by distance even though it drags effFloor far below best.
func (d *domain) anchorCanImprove(c *Core, depth int, best vtime.Time) bool {
	delta := d.k.relayDelta
	cost := satScale(delta, depth+1)
	if satAdd(d.frozenFloor, cost) < best {
		return true
	}
	lm := d.k.lmDist
	eff := d.k.eff
	ci := c.ID
	for _, a := range d.busyList {
		hops := depth + 1
		for _, dist := range lm {
			dc, da := dist[ci], dist[a]
			if dc < 0 || da < 0 {
				continue // disconnected from this landmark: no bound
			}
			diff := int(dc - da)
			if diff < 0 {
				diff = -diff
			}
			if diff > hops {
				hops = diff
			}
		}
		if satAdd(eff[a], satScale(delta, hops)) < best {
			return true
		}
	}
	return false
}

// stallq is a domain's secondary scheduling heap: the stalled cores with
// at least one idle same-domain neighbor (current != nil && idleNb > 0),
// ordered by (vt, ID). Their runnable keys — when runnable at all —
// equal their clocks, but runnability itself depends on lazily evaluated
// horizons, so membership here means "idle-adjacent stalled", not
// "runnable"; pickCore evaluates the horizons of the members with
// vt ≤ limit on demand. Clocks are frozen while stalled, so the heap
// never needs re-keying between insert and remove.
type stallq struct {
	heap []*Core
}

func stallLess(a, b *Core) bool {
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.ID < b.ID
}

func (q *stallq) swap(i, j int) {
	h := q.heap
	h[i], h[j] = h[j], h[i]
	h[i].stallPos = i
	h[j].stallPos = j
}

func (q *stallq) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !stallLess(q.heap[i], q.heap[p]) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

func (q *stallq) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && stallLess(q.heap[l], q.heap[s]) {
			s = l
		}
		if r < n && stallLess(q.heap[r], q.heap[s]) {
			s = r
		}
		if s == i {
			return
		}
		q.swap(i, s)
		i = s
	}
}

func (q *stallq) insert(c *Core) {
	c.stallPos = len(q.heap)
	q.heap = append(q.heap, c)
	q.up(c.stallPos)
}

func (q *stallq) remove(c *Core) {
	i := c.stallPos
	last := len(q.heap) - 1
	if i != last {
		q.swap(i, last)
	}
	q.heap[last] = nil
	q.heap = q.heap[:last]
	c.stallPos = -1
	if i != last {
		q.down(i)
		q.up(i)
	}
}

// update maintains c's membership: stalled cores in, everyone else out.
// A stalled core whose clock moved (resume + re-stall within one step)
// is repositioned by remove/insert at the post-step update.
func (q *stallq) update(c *Core) {
	stalled := c.current != nil
	switch {
	case stalled && c.stallPos < 0:
		q.insert(c)
	case !stalled && c.stallPos >= 0:
		q.remove(c)
	case stalled:
		q.down(c.stallPos)
		q.up(c.stallPos)
	}
}

// stallBest finds the best runnable stalled core with vt ≤ limit — the
// minimal (vt, ID) member whose lazily evaluated horizon has reached its
// clock — plus the count of runnable stalled cores within the limit (the
// §VIII sample share the runq cannot see). The walk visits only the heap
// subtrees whose root clock qualifies. A member found runnable records a
// sticky bit valid for the current shape epoch: anchor values are
// monotone between busy/idle flips, so its horizon can only keep rising
// above its frozen clock — the expensive region evaluation runs once,
// not once per pick (any input that could lower the horizon — the
// core's own clock, births, locks, a flip anywhere in the domain —
// clears the bit via schedUpdate or the epoch).
func (d *domain) stallBest(limit vtime.Time) (best *Core, count int) {
	q := d.sq
	if q == nil || len(q.heap) == 0 {
		return nil, 0
	}
	var walk func(i int)
	walk = func(i int) {
		if i >= len(q.heap) {
			return
		}
		c := q.heap[i]
		if c.vt > limit {
			return
		}
		if c != d.stepping {
			runnable := c.rnStamp == d.shapeEpoch
			if !runnable && c.vt <= d.stallHorizon(c) {
				runnable = true
				c.rnStamp = d.shapeEpoch
			}
			if runnable {
				count++
				if best == nil || stallLess(c, best) {
					best = c
				}
			}
		}
		walk(2*i + 1)
		walk(2*i + 2)
	}
	walk(0)
	return best, count
}

// stallHorizon serves a stalled core's policy horizon through a memo
// valid for the current effective-time epoch. The horizon's inputs are
// the neighbor effective times (epoch-stable by definition) and the
// non-eff runnability inputs — clock, births, locks — whose every
// mutation site posts schedUpdate (the invalidation catalogue in
// docs/scheduler.md), which clears the memo. Without this, a dense
// machine re-derives hundreds of identical horizons per pick.
func (d *domain) stallHorizon(c *Core) vtime.Time {
	if c.hzStamp == d.effEpoch {
		return c.hzKey
	}
	h := d.k.policy.Horizon(c)
	c.hzKey = h
	c.hzStamp = d.effEpoch
	return h
}

// pickIndexed is pickCore's indexed decision: the best of the runq head
// (non-stalled runnables, exact cached keys) and the best runnable
// stalled core, with the scan's (key, ID) preference, plus the combined
// §VIII runnable count.
func (d *domain) pickIndexed(limit vtime.Time) (best *Core, key vtime.Time, count int) {
	rqBest, rqCount := d.rq.pick(limit)
	sBest, sCount := d.stallBest(limit)
	count = rqCount + sCount
	switch {
	case rqBest == nil:
		best = sBest
	case sBest == nil:
		best = rqBest
	default:
		// A stalled core's runnable key is its clock.
		if sBest.vt < rqBest.schedKey || (sBest.vt == rqBest.schedKey && sBest.ID < rqBest.ID) {
			best = sBest
		} else {
			best = rqBest
		}
	}
	if best == nil {
		return nil, 0, count
	}
	if best == sBest && best != rqBest {
		return best, best.vt, count
	}
	return best, best.schedKey, count
}

// resetLazyIdle rebuilds the lazy bookkeeping for the all-idle machine
// (the busy == 0 branch of refreshEff, reached at barriers and on
// restore): no anchors (the busy list is already empty), infinite floors,
// every memo discarded.
func (d *domain) resetLazyIdle() {
	d.effFloor = vtime.Inf
	d.frozenFloor = vtime.Inf
	d.floorAge = 0
	d.effInvalidate()
	d.shapeEpoch++
}

// rebuildLazyFromRefresh rebuilds the domain's lazy bookkeeping after the
// barrier-time global relaxation (refreshEff) has left Kernel.eff at the
// global fixpoint, in O(busy + cut edges): the exact floors are
// recomputed from the busy list and the domain's cut-edge proxies, and
// every idle core's memo is seeded at once through seedEpoch from its
// already-correct eff (the global fixpoint restricted to a domain equals
// the domain-local fixpoint anchored at the freshly frozen proxies).
func (d *domain) rebuildLazyFromRefresh() {
	k := d.k
	d.effInvalidate()
	// Refreshed frozen proxies can move horizons either way: drop the
	// sticky runnable bits along with the value memos.
	d.shapeEpoch++
	d.seedEpoch = d.effEpoch
	frozen := vtime.Inf
	for _, e := range d.cutEdges {
		if p := k.nbEff[e]; p < frozen {
			frozen = p
		}
	}
	d.frozenFloor = frozen
	d.recomputeFloor()
}

// rebuildStallq reseats the domain's idle-adjacent stalled cores in the
// secondary heap; the counterpart of runq.rebuild for the stalled set.
// Stalled cores with no idle same-domain neighbor stay in the runq: every
// input of their horizons posts an invalidation (effSite's neighbor pass,
// the barrier rebuild, schedUpdate), so their cached keys are exact.
func (d *domain) rebuildStallq() {
	q := d.sq
	q.heap = q.heap[:0]
	for _, c := range d.cores {
		c.stallPos = -1
	}
	for _, c := range d.cores {
		if c.current != nil && c.idleNb > 0 {
			c.stallPos = len(q.heap)
			q.heap = append(q.heap, c)
		}
	}
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// rebuildIdleNb recounts every owned core's idle same-domain neighbors —
// the predicate routing stalled cores between the runq and the stall
// heap. Maintained incrementally by effSite's flip branches while
// running; recomputed here before the scheduling structures are rebuilt
// (engine start, restore).
func (d *domain) rebuildIdleNb() {
	k := d.k
	for _, c := range d.cores {
		n := int32(0)
		for _, nbID := range c.neighbors {
			nb := k.cores[nbID]
			if nb.dom == d && nb.idle {
				n++
			}
		}
		c.idleNb = n
	}
}

// indexedHead returns the minimal runnable (key, core) the indexed
// structures can see under an infinite limit — the runq head and the
// stalled heap folded together, the per-domain input to the sharded
// round setup.
func (d *domain) indexedHead() (*Core, vtime.Time) {
	c, key, _ := d.pickIndexed(vtime.Inf)
	if c == nil {
		return nil, vtime.Inf
	}
	return c, key
}
