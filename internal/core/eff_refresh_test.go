package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"simany/internal/topology"
	"simany/internal/vtime"
)

// referenceRefresh is the barrier relaxation the flat refreshEff replaced,
// kept as its test oracle: it walks the Core structs, resets every core
// (busy at its clock, idle at Inf), seeds the worklist with every idle
// core, and relaxes in push form, rewriting the proxy each neighbor keeps
// for an improved core. It reads the kernel and writes only the returned
// arrays: the advertised time per core ID and the proxies in Kernel.nbEff
// slot order. The relay rule is the spatial one, min(neighbors) + delta.
func referenceRefresh(k *Kernel, delta vtime.Time) (eff, nbEff []vtime.Time) {
	n := len(k.cores)
	eff = make([]vtime.Time, n)
	rows := make([][]vtime.Time, n)
	nbEff = make([]vtime.Time, 0, len(k.nbEff))
	for _, c := range k.cores {
		start := len(nbEff)
		for range c.neighbors {
			nbEff = append(nbEff, vtime.Inf)
		}
		rows[c.ID] = nbEff[start:len(nbEff):len(nbEff)]
	}
	busy := 0
	for _, c := range k.cores {
		eff[c.ID] = vtime.Inf
		if !c.idle {
			eff[c.ID] = c.vt
			busy++
		}
	}
	if busy == 0 {
		return eff, nbEff
	}
	for _, c := range k.cores {
		for j, nbID := range c.neighbors {
			rows[c.ID][j] = eff[nbID]
		}
	}
	var queue []int
	for _, c := range k.cores {
		if c.idle {
			queue = append(queue, c.ID)
		}
	}
	for head := 0; head < len(queue); head++ {
		c := k.cores[queue[head]]
		m := vtime.Inf
		for _, t := range rows[c.ID] {
			if t < m {
				m = t
			}
		}
		e := satAdd(m, delta)
		if e >= eff[c.ID] {
			continue
		}
		eff[c.ID] = e
		for _, nbID := range c.neighbors {
			nb := k.cores[nbID]
			for j, nid := range nb.neighbors {
				if nid == c.ID {
					rows[nbID][j] = e
					break
				}
			}
			if nb.idle {
				queue = append(queue, nbID)
			}
		}
	}
	return eff, nbEff
}

// TestEffEquivalenceRefreshOracle pauses randomized sharded runs at every
// barrier and compares the flat refresh against referenceRefresh bit for
// bit, on every core's advertised time and on every proxy slot; each
// domain's round-setup head must match the reference scan, and Validate
// then re-checks every fresh lazy memo — all of them seeded through the
// domain's seed epoch at that point — against an independent fixpoint.
// The "verify" runs also carry the pick oracle, so the lazy state is
// checked between barriers too; the "eager" runs carry it with allIdle
// set, eagerly evaluating every idle core's effective time at every pick
// and comparing it with the reference fixpoint, so the barrier refresh
// meets fully populated memos. The paused runs must end with the Result of an uninterrupted
// one.
func TestEffEquivalenceRefreshOracle(t *testing.T) {
	topos := []struct {
		name string
		spec string
	}{
		{"mesh64", "mesh:8x8"},
		{"chiplet64", "chiplet:4x4,2x2"},
	}
	loads := []struct {
		name  string
		tasks func(cores int) int
	}{
		{"dense", func(cores int) int { return 3 * cores / 2 }},
		{"sparse", func(cores int) int { return 3 }},
	}
	modes := []struct {
		name           string
		check, allIdle bool
	}{
		{"eager", true, true},
		{"lazy", false, false},
		{"verify", true, false},
	}
	const seed = 7
	for _, tc := range topos {
		for _, load := range loads {
			for _, mode := range modes {
				for _, shards := range []int{4, 16} {
					name := fmt.Sprintf("%s/%s/%s/shards%d", tc.name, load.name, mode.name, shards)
					t.Run(name, func(t *testing.T) {
						newKernel := func() *Kernel {
							topo, err := topology.ParseSpec(tc.spec)
							if err != nil {
								t.Fatal(err)
							}
							k := New(Config{
								Topo:    topo,
								Policy:  spatialT,
								Seed:    seed,
								Shards:  shards,
								Workers: 2,
								// A short quantum multiplies the barriers.
								ShardQuantum: 2 * DefaultT,
							})
							equivWorkload(k, seed, load.tasks(topo.N()))
							return k
						}
						want, err := newKernel().Run()
						if err != nil {
							t.Fatal(err)
						}
						k := newKernel()
						o := watchPicks(k, mode.check)
						o.allIdle = mode.allIdle
						res, barriers := runPausedEachBarrier(t, k, func(barrier int) {
							checkRefreshAgainstOracle(t, k, barrier)
						})
						if !reflect.DeepEqual(res, want) {
							t.Fatalf("paused run diverged:\n  paused %+v\n  whole  %+v", res, want)
						}
						if barriers < 5 {
							t.Fatalf("only %d barriers observed", barriers)
						}
						if err := o.err(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

func checkRefreshAgainstOracle(t *testing.T, k *Kernel, barrier int) {
	t.Helper()
	eff, nbEff := referenceRefresh(k, DefaultT)
	for id := range eff {
		if k.eff[id] != eff[id] {
			t.Fatalf("barrier %d: core %d advertises %v, reference %v", barrier, id, k.eff[id], eff[id])
		}
	}
	for e := range nbEff {
		if k.nbEff[e] != nbEff[e] {
			t.Fatalf("barrier %d: proxy slot %d is %v, reference %v", barrier, e, k.nbEff[e], nbEff[e])
		}
	}
	if err := checkBarrierHeads(k); err != nil {
		t.Fatalf("barrier %d: %v", barrier, err)
	}
	busy := 0
	for _, d := range k.domains {
		busy += d.busy
	}
	for _, d := range k.domains {
		// The refresh seeds every idle memo at a barrier that leaves a
		// busy core anywhere.
		if seeded, want := d.seedEpoch == d.effEpoch, busy > 0; seeded != want {
			t.Fatalf("barrier %d: domain %d seeded=%v, want %v (seed epoch %d, memo epoch %d)",
				barrier, d.id, seeded, want, d.seedEpoch, d.effEpoch)
		}
		if d.busy == 0 {
			// With no local anchor lazyEff answers Inf by convention.
			continue
		}
		for _, c := range d.cores {
			if !c.idle {
				continue
			}
			if got := d.lazyEff(c); got != eff[c.ID] {
				t.Fatalf("barrier %d: idle core %d lazy value %v, reference %v", barrier, c.ID, got, eff[c.ID])
			}
		}
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("barrier %d: %v", barrier, err)
	}
}

// TestRefreshEffZeroAlloc pins the steady-state contract of the barrier
// refresh: once its scratch has grown, refreshEff allocates nothing,
// under a finite relay and under the infinite relay of the
// drift-comparison policies.
func TestRefreshEffZeroAlloc(t *testing.T) {
	for _, mode := range []struct {
		name string
		pol  Policy
	}{{"lazy", spatialT}, {"relayinf", relayInf{spatialT}}} {
		t.Run(mode.name, func(t *testing.T) {
			topo, err := topology.ParseSpec("chiplet:4x4,2x2,3x3")
			if err != nil {
				t.Fatal(err)
			}
			k := New(Config{Topo: topo, Policy: mode.pol, Seed: 4, Shards: 8, Workers: 1})
			equivWorkload(k, 4, 40)
			k.PauseAfter(6)
			if _, err := k.Run(); !errors.Is(err, ErrPaused) {
				t.Fatalf("run did not pause: %v", err)
			}
			busy := 0
			for _, d := range k.domains {
				busy += d.busy
			}
			if busy == 0 {
				t.Fatal("paused machine is all idle; the refresh would skip the relaxation")
			}
			k.refreshEff()
			if a := testing.AllocsPerRun(20, k.refreshEff); a != 0 {
				t.Fatalf("refreshEff allocates %v times per call at steady state", a)
			}
		})
	}
}
