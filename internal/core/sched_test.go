package core

import (
	"testing"

	"simany/internal/topology"
	"simany/internal/vtime"
)

// schedTestKernel builds a small kernel on the reference scan (no runq of
// its own), so tests can graft a manual queue (with the stall heap
// Validate expects next to it) without engine interference.
func schedTestKernel(t *testing.T) *Kernel {
	t.Helper()
	return New(Config{Topo: topology.Mesh(9), Policy: ScanLazy{spatialT}, Seed: 1})
}

// readyAt attaches a fresh task with the given arrival stamp to core c.
func readyAt(k *Kernel, c *Core, at vtime.Time) *Task {
	t := k.NewTask(c.ID, "q", nil, nil)
	t.arrival = at
	c.pushReady(t)
	return t
}

func mustCheck(t *testing.T, d *domain) {
	t.Helper()
	if err := d.checkRunq(); err != nil {
		t.Fatal(err)
	}
}

func TestRunqInsertRemoveUpdate(t *testing.T) {
	k := schedTestKernel(t)
	d := k.domains[0]
	q := newRunq(d)
	d.rq, d.sq = q, &stallq{}

	c1, c3, c5 := k.Core(1), k.Core(3), k.Core(5)

	readyAt(k, c3, vtime.CyclesInt(50))
	q.update(c3)
	if got := q.peek(); got != c3 || got.schedKey != vtime.CyclesInt(50) {
		t.Fatalf("peek = %v, want core 3 at 50", got)
	}
	mustCheck(t, d)

	// Equal keys break ties by core ID, exactly like the scan.
	readyAt(k, c1, vtime.CyclesInt(50))
	q.update(c1)
	if got := q.peek(); got != c1 {
		t.Fatalf("peek = core %d, want core 1 (ID tie-break)", got.ID)
	}
	mustCheck(t, d)

	readyAt(k, c5, vtime.CyclesInt(20))
	q.update(c5)
	if got := q.peek(); got != c5 {
		t.Fatalf("peek = core %d, want core 5 (earliest key)", got.ID)
	}
	mustCheck(t, d)

	// Redundant update with an unchanged key is a no-op.
	q.update(c5)
	mustCheck(t, d)

	// A new earlier arrival moves the key and repositions the core.
	readyAt(k, c1, vtime.CyclesInt(5))
	q.update(c1)
	if got := q.peek(); got != c1 || got.schedKey != vtime.CyclesInt(5) {
		t.Fatalf("peek = core %d key %v, want core 1 at 5", got.ID, got.schedKey)
	}
	mustCheck(t, d)

	// Draining a core's queue removes it from the index.
	for len(c1.ready) > 0 {
		c1.popReady()
	}
	q.update(c1)
	if c1.schedPos != -1 {
		t.Fatalf("core 1 still indexed at %d after draining", c1.schedPos)
	}
	if got := q.peek(); got != c5 {
		t.Fatalf("peek = core %d, want core 5", got.ID)
	}
	mustCheck(t, d)

	// rebuild from scratch reproduces the same head.
	q.rebuild()
	if got := q.peek(); got != c5 {
		t.Fatalf("peek after rebuild = core %d, want core 5", got.ID)
	}
	mustCheck(t, d)
}

func TestRunqCountAtMostAndPick(t *testing.T) {
	k := schedTestKernel(t)
	d := k.domains[0]
	q := newRunq(d)
	d.rq, d.sq = q, &stallq{}

	stamps := []int64{70, 20, 50, 20, 90}
	for i, s := range stamps {
		c := k.Core(i)
		readyAt(k, c, vtime.CyclesInt(s))
		q.update(c)
	}
	mustCheck(t, d)

	for _, tc := range []struct {
		limit int64
		want  int
	}{
		{10, 0}, {20, 2}, {50, 3}, {70, 4}, {90, 5},
	} {
		if got := q.countAtMost(vtime.CyclesInt(tc.limit)); got != tc.want {
			t.Errorf("countAtMost(%d) = %d, want %d", tc.limit, got, tc.want)
		}
	}
	if got := q.countAtMost(vtime.Inf); got != len(stamps) {
		t.Errorf("countAtMost(Inf) = %d, want %d", got, len(stamps))
	}

	if best, n := q.pick(vtime.CyclesInt(10)); best != nil || n != 0 {
		t.Errorf("pick(10) = %v, %d, want none", best, n)
	}
	best, n := q.pick(vtime.CyclesInt(60))
	if best == nil || best.ID != 1 || n != 3 {
		t.Errorf("pick(60) = %v, %d, want core 1 of 3", best, n)
	}
	// Both cores at stamp 20 qualify; the lower ID wins.
	if best, _ := q.pick(vtime.Inf); best.ID != 1 {
		t.Errorf("pick(Inf) = core %d, want core 1", best.ID)
	}
}

// TestReadyMinCacheReordering pins the incremental min-arrival cache
// against a recomputation from the raw queue across a pop sequence that
// reorders arrivals: the FIFO pop order (70, 10, 40) disagrees with the
// stamp order, so the cache must survive both popping a non-minimal head
// and popping the task that carried the minimum.
func TestReadyMinCacheReordering(t *testing.T) {
	k := schedTestKernel(t)
	c := k.Core(0)

	recompute := func() vtime.Time {
		m := vtime.Inf
		for _, t := range c.ready {
			if t.arrival < m {
				m = t.arrival
			}
		}
		return m
	}
	check := func(stage string) {
		t.Helper()
		if got, want := c.minReadyArrival(), recompute(); got != want {
			t.Fatalf("%s: cached ready-min %v, recomputed %v", stage, got, want)
		}
	}

	check("empty")
	readyAt(k, c, vtime.CyclesInt(70))
	check("push 70")
	readyAt(k, c, vtime.CyclesInt(10))
	check("push 10")
	readyAt(k, c, vtime.CyclesInt(40))
	check("push 40")

	// Pop the head (arrival 70): the minimum (10) is untouched.
	if got := c.popReady(); got.arrival != vtime.CyclesInt(70) {
		t.Fatalf("popped arrival %v, want 70", got.arrival)
	}
	check("pop 70")
	// Pop the task carrying the cached minimum: forces the lazy recompute.
	if got := c.popReady(); got.arrival != vtime.CyclesInt(10) {
		t.Fatalf("popped arrival %v, want 10", got.arrival)
	}
	check("pop 10")
	// Pushing below the new minimum while the cache is clean absorbs it.
	readyAt(k, c, vtime.CyclesInt(15))
	check("push 15")
	c.popReady()
	check("pop 40")
	c.popReady()
	check("drained")
	if got := c.minReadyArrival(); got != vtime.Inf {
		t.Fatalf("drained queue ready-min %v, want Inf", got)
	}
}

// TestContsMinCacheReordering is the continuation-queue twin of the
// ready-queue test above.
func TestContsMinCacheReordering(t *testing.T) {
	k := schedTestKernel(t)
	c := k.Core(0)

	push := func(at int64) {
		tk := k.NewTask(c.ID, "c", nil, nil)
		tk.resume = vtime.CyclesInt(at)
		c.pushCont(tk)
	}
	recompute := func() vtime.Time {
		m := vtime.Inf
		for _, t := range c.conts {
			if t.resume < m {
				m = t.resume
			}
		}
		return m
	}
	check := func(stage string) {
		t.Helper()
		if got, want := c.minContResume(), recompute(); got != want {
			t.Fatalf("%s: cached conts-min %v, recomputed %v", stage, got, want)
		}
	}

	push(30)
	check("push 30")
	push(5)
	check("push 5")
	push(20)
	check("push 20")
	c.popCont() // 30: min survives
	check("pop 30")
	c.popCont() // 5: carried the min, recompute yields 20
	check("pop 5")
	c.popCont()
	check("drained")
	if got := c.minContResume(); got != vtime.Inf {
		t.Fatalf("drained queue conts-min %v, want Inf", got)
	}
}
