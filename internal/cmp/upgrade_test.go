package cmp

import (
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/policies"
	"ascc/internal/trace"
)

// newUpgradeSystem builds a small scripted machine for driving single
// references through the hierarchy by hand.
func newUpgradeSystem(t *testing.T, cores int) *System {
	t.Helper()
	gens := make([]trace.Generator, cores)
	for i := range gens {
		gens[i] = &scriptGen{name: "manual", refs: []trace.Ref{{}}}
	}
	sys, err := New(tinyParams(cores), gens, evenTiming(cores), policies.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWriteUpgradeInvalidatesPeers covers the writeThroughHit path: a store
// that hits the L1 while the inclusive L2 copy is Shared must invalidate
// every peer copy (L1 and L2), upgrade the local copy to Modified/Dirty, and
// cost exactly one bus transfer.
func TestWriteUpgradeInvalidatesPeers(t *testing.T) {
	s := newUpgradeSystem(t, 2)
	const block = uint64(1)
	addr := block * 32

	// Core 0 fills the block from memory (Exclusive), core 1 read-shares it:
	// both L2s now hold it Shared, both L1s hold it.
	s.access(0, trace.Ref{Addr: addr})
	s.access(1, trace.Ref{Addr: addr})
	for c := 0; c < 2; c++ {
		w, ok := s.l2s[c].Lookup(block)
		if !ok {
			t.Fatalf("setup: core %d L2 lost the block", c)
		}
		if st := s.l2s[c].Line(s.l2s[c].SetIndex(block), w).State; st != cachesim.Shared {
			t.Fatalf("setup: core %d L2 state = %v, want Shared", c, st)
		}
	}
	if _, ok := s.l1s[1].Lookup(block); !ok {
		t.Fatal("setup: core 1 L1 does not hold the shared block")
	}

	bus0 := s.live[0].BusTransfers
	s.access(0, trace.Ref{Addr: addr, Write: true})

	if _, ok := s.l2s[1].Lookup(block); ok {
		t.Error("upgrade left the peer L2 copy valid")
	}
	if _, ok := s.l1s[1].Lookup(block); ok {
		t.Error("upgrade left the peer L1 copy valid (inclusion would break)")
	}
	w, ok := s.l2s[0].Lookup(block)
	if !ok {
		t.Fatal("upgrade dropped the writer's own L2 copy")
	}
	line := s.l2s[0].Line(s.l2s[0].SetIndex(block), w)
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("writer's L2 line = {State %v Dirty %v}, want Modified/dirty", line.State, line.Dirty)
	}
	if got := s.live[0].BusTransfers - bus0; got != 1 {
		t.Errorf("upgrade cost %d bus transfers, want exactly 1", got)
	}
	if got := s.holderMask(block, 0); got != 0 {
		t.Errorf("holder mask after upgrade = %b, want no peers", got)
	}

	// A repeat store to the Modified line is L1-local: no further bus
	// traffic, no state change.
	s.access(0, trace.Ref{Addr: addr, Write: true})
	if got := s.live[0].BusTransfers - bus0; got != 1 {
		t.Errorf("repeat store moved the bus counter to %d, want still 1", got)
	}
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("repeat store changed the L2 line to {State %v Dirty %v}", line.State, line.Dirty)
	}
}

// TestWriteUpgradeOnL2Hit covers the l2Demand upgrade: a store whose block
// missed the L1 but hits the local L2 in Shared state runs the same
// invalidate-others upgrade.
func TestWriteUpgradeOnL2Hit(t *testing.T) {
	s := newUpgradeSystem(t, 2)
	const block = uint64(1)
	addr := block * 32

	s.access(0, trace.Ref{Addr: addr})
	s.access(1, trace.Ref{Addr: addr})
	// Knock the writer's L1 copy out so the store takes the L2 path.
	s.l1s[0].Invalidate(block)

	bus0 := s.live[0].BusTransfers
	s.access(0, trace.Ref{Addr: addr, Write: true})

	if _, ok := s.l2s[1].Lookup(block); ok {
		t.Error("L2-hit upgrade left the peer L2 copy valid")
	}
	if _, ok := s.l1s[1].Lookup(block); ok {
		t.Error("L2-hit upgrade left the peer L1 copy valid")
	}
	w, ok := s.l2s[0].Lookup(block)
	if !ok {
		t.Fatal("L2-hit upgrade dropped the writer's copy")
	}
	line := s.l2s[0].Line(s.l2s[0].SetIndex(block), w)
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("writer's L2 line = {State %v Dirty %v}, want Modified/dirty", line.State, line.Dirty)
	}
	if got := s.live[0].BusTransfers - bus0; got != 1 {
		t.Errorf("upgrade cost %d bus transfers, want exactly 1", got)
	}
}

// TestWriteUpgradeSingleCore is the degenerate case: with one core there are
// no peers, so a store to an Exclusive line upgrades silently — no
// invalidations, no bus transfer.
func TestWriteUpgradeSingleCore(t *testing.T) {
	s := newUpgradeSystem(t, 1)
	const block = uint64(1)
	addr := block * 32

	s.access(0, trace.Ref{Addr: addr})
	bus0 := s.live[0].BusTransfers
	s.access(0, trace.Ref{Addr: addr, Write: true})

	w, ok := s.l2s[0].Lookup(block)
	if !ok {
		t.Fatal("store dropped the only copy")
	}
	line := s.l2s[0].Line(s.l2s[0].SetIndex(block), w)
	if line.State != cachesim.Modified || !line.Dirty {
		t.Errorf("L2 line = {State %v Dirty %v}, want Modified/dirty", line.State, line.Dirty)
	}
	if got := s.live[0].BusTransfers - bus0; got != 0 {
		t.Errorf("single-core upgrade cost %d bus transfers, want 0", got)
	}
	// And once more: the Modified marker short-circuits in the L1.
	s.access(0, trace.Ref{Addr: addr, Write: true})
	if got := s.live[0].BusTransfers - bus0; got != 0 {
		t.Errorf("repeat store cost %d bus transfers, want 0", got)
	}
}

// TestDowngradeClearsL1Marker pins the marker-coherence subtlety: when a
// peer read downgrades a Modified line to Shared while the owner's L1 copy
// survives, the next store must run the full upgrade again (invalidating the
// peer), not short-circuit on a stale Modified marker.
func TestDowngradeClearsL1Marker(t *testing.T) {
	s := newUpgradeSystem(t, 2)
	const block = uint64(1)
	addr := block * 32

	// Core 0 writes the block (Modified, L1 marker set), then core 1 reads
	// it: M -> S downgrade with the dirty data written back.
	s.access(0, trace.Ref{Addr: addr, Write: true})
	s.access(1, trace.Ref{Addr: addr})
	w, ok := s.l2s[0].Lookup(block)
	if !ok {
		t.Fatal("downgrade dropped the owner's copy")
	}
	if st := s.l2s[0].Line(s.l2s[0].SetIndex(block), w).State; st != cachesim.Shared {
		t.Fatalf("owner's L2 state after peer read = %v, want Shared", st)
	}
	if _, ok := s.l1s[0].Lookup(block); !ok {
		t.Fatal("downgrade should leave the owner's L1 copy resident")
	}

	bus0 := s.live[0].BusTransfers
	s.access(0, trace.Ref{Addr: addr, Write: true})
	if got := s.live[0].BusTransfers - bus0; got != 1 {
		t.Errorf("post-downgrade store cost %d bus transfers, want 1 (upgrade must rerun)", got)
	}
	if _, ok := s.l2s[1].Lookup(block); ok {
		t.Error("post-downgrade store left the peer copy valid")
	}
}

// TestSharedStoreHitAfterPeerRead pins the shared-LLC machine's store-hit
// rule through the stepping engine: core 0 stores to X twice, core 1 reads
// X, and core 0 stores to X again. The last store hits core 0's L1 and must
// still write through and drop core 1's copy. An upgrade that marked the
// L1 line Modified would let that store stay in the burst kernel and leave
// core 1 reading a stale copy, because a peer's read never clears the
// marker on the shared machine.
func TestSharedStoreHitAfterPeerRead(t *testing.T) {
	const x, w, z = 0, 1, 3 // blocks: X in L1 set 0, the fillers in set 1
	ref := func(block uint64, gap int32, write bool) trace.Ref {
		return trace.Ref{Addr: block * 32, Gap: gap, Write: write}
	}
	// Clocks (BaseCPI 1, Overlap 0.5, 230-cycle effective memory latency):
	// core 0 stores X at 0 and 231, then its filler jumps it to 3463; core
	// 1's filler jumps it to 2231, where it reads X, then retires. Core 0's
	// third store runs last.
	build := func() *System {
		p := tinyParams(2)
		sys, err := NewShared(SharedParams{
			Cores:            2,
			L1:               p.L1,
			L2:               cachesim.Config{SizeBytes: 2 * p.L2.SizeBytes, Ways: p.L2.Ways, LineBytes: p.L2.LineBytes},
			HitCycles:        18,
			MemLatencyCycles: p.MemLatencyCycles,
		}, []trace.Generator{
			&scriptGen{name: "writer", refs: []trace.Ref{ref(x, 0, true), ref(x, 0, true), ref(w, 3000, false), ref(x, 0, true)}},
			&scriptGen{name: "reader", refs: []trace.Ref{ref(z, 2000, false), ref(x, 0, false), ref(z, 100000, false)}},
		}, evenTiming(2))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	const quota = 1 + 1 + 3001 + 1 // core 0's four references
	s, oracle := build(), build()
	res := s.Run(0, quota)
	if want := oracle.refSharedRun(0, quota); !reflect.DeepEqual(res, want) {
		t.Fatalf("engine %+v, per-reference loop %+v", res, want)
	}
	if got := res.Cores[1].L2LocalHits; got != 1 {
		t.Fatalf("core 1 read X from the shared L2 %d times, want 1 (script out of order)", got)
	}
	if _, ok := s.l1s[1].Lookup(x); ok {
		t.Error("core 0's store hit left core 1's L1 copy of X valid")
	}
	wy, ok := s.llc.Lookup(x)
	if !ok {
		t.Fatal("X left the shared L2")
	}
	if l := s.llc.Line(s.llc.SetIndex(x), wy); !l.Dirty || l.State != cachesim.Modified {
		t.Errorf("shared L2 copy of X = %+v, want dirty and Modified", *l)
	}
}
