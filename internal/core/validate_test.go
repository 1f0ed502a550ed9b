package core

import (
	"strings"
	"testing"

	"simany/internal/network"
	"simany/internal/topology"
	"simany/internal/vtime"
)

func TestValidateFreshKernel(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(16), Seed: 1})
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAfterRun(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(8), Seed: 1})
	for c := 0; c < 8; c++ {
		k.InjectTask(c, "w", func(e *Env) {
			for i := 0; i < 20; i++ {
				e.ComputeCycles(15)
			}
		}, nil, 0)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	// Two shards, so some proxies are frozen cross-shard ones: a frozen
	// proxy below the domain's frozen-proxy floor (Inf on a fresh kernel)
	// breaks the lazy BFS cutoff.
	k := New(Config{Topo: topology.Mesh(4), Seed: 1, Shards: 2})
	d := k.domains[0]
	if len(d.cutEdges) == 0 {
		t.Fatal("no cross-shard proxy to corrupt")
	}
	slot := d.cutEdges[0]
	k.nbEff[slot] = vtime.CyclesInt(12345)
	err := k.Validate()
	if err == nil || !strings.Contains(err.Error(), "proxy") {
		t.Fatalf("corruption not detected: %v", err)
	}
	// Repair and corrupt the busy counter instead.
	k.nbEff[slot] = vtime.Inf
	k.domains[0].busy = 3
	err = k.Validate()
	if err == nil || !strings.Contains(err.Error(), "busy-core") {
		t.Fatalf("counter corruption not detected: %v", err)
	}
	k.domains[0].busy = 0
	// Corrupt the birth cache.
	k.cores[1].births = map[uint64]vtime.Time{7: vtime.CyclesInt(5)}
	// birthCache still Inf and not dirty -> mismatch.
	err = k.Validate()
	if err == nil || !strings.Contains(err.Error(), "birth") {
		t.Fatalf("birth corruption not detected: %v", err)
	}
}

func TestValidateDetectsLazyCorruption(t *testing.T) {
	k := New(Config{Topo: topology.Mesh(4), Seed: 1})
	d := k.domains[0]
	// An idle core smuggled onto the busy-frontier list.
	c := k.cores[0]
	c.busyPos = 0
	d.busyList = append(d.busyList, int32(c.ID))
	err := k.Validate()
	if err == nil || !strings.Contains(err.Error(), "busy-list slot") {
		t.Fatalf("busy-list corruption not detected: %v", err)
	}
	d.busyList = d.busyList[:0]
	c.busyPos = -1
	// A fresh memo that disagrees with the relay fixpoint (all-idle
	// machine: every idle core's fixpoint value is Inf).
	k.eff[c.ID] = vtime.CyclesInt(777)
	c.effStamp = d.effEpoch
	err = k.Validate()
	if err == nil || !strings.Contains(err.Error(), "fixpoint") {
		t.Fatalf("memo corruption not detected: %v", err)
	}
	// The same value served through the barrier seed epoch instead of
	// the core's own stamp.
	c.effStamp = 0
	d.seedEpoch = d.effEpoch
	err = k.Validate()
	if err == nil || !strings.Contains(err.Error(), "seeded memo") {
		t.Fatalf("seeded-memo corruption not detected: %v", err)
	}
}

// TestValidatingTracerContinuous runs a messaging-heavy workload with the
// validator checking every event: any drift between the incremental state
// and the invariants panics and fails the run.
func TestValidatingTracerContinuous(t *testing.T) {
	topo := topology.Mesh(8)
	k := New(Config{Topo: topo, Policy: Spatial{T: vtime.CyclesInt(30)}, Seed: 2})
	k.SetTracer(&ValidatingTracer{K: k, Interval: 1})
	received := make([]int, 8)
	k.Handle(kindOneWay, func(k *Kernel, msg network.Message) {
		received[msg.Dst]++
	})
	k.Handle(kindPing, func(k *Kernel, msg network.Message) {
		k.Unblock(msg.Payload.(*Task), msg.Arrival)
	})
	// Even cores compute and ping their right neighbor; one blocked task
	// on core 7 is woken at the end by core 6.
	var sleeper *Task
	sleeper = k.InjectTask(7, "sleeper", func(e *Env) {
		e.Block()
		e.ComputeCycles(10)
	}, nil, 0)
	for c := 0; c < 7; c++ {
		c := c
		k.InjectTask(c, "w", func(e *Env) {
			for i := 0; i < 10; i++ {
				e.ComputeCycles(20)
				if c%2 == 0 {
					e.Send(c+1, kindOneWay, 8, nil)
				}
			}
			if c == 6 {
				e.Send(7, kindPing, 8, sleeper)
			}
		}, nil, 0)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	if received[1] != 10 || received[3] != 10 || received[5] != 10 {
		t.Errorf("pings lost: %v", received)
	}
}
