package cmp

import (
	"math"

	"ascc/internal/cachesim"
	"ascc/internal/trace"
)

// This file freezes the pre-burst per-reference stepping loop — the
// runPhase body that shipped with the batched-generation rewrite — as the
// differential oracle for the run-to-event burst kernel. It is verbatim
// except for the mechanical refs/refPos -> trace.Batch cursor rename, and
// it must NOT be "improved": FuzzBurstEquivalence and the phase benchmark
// compare the live engine against exactly this stepping. The per-reference
// access path it calls lives here too, unchanged: the live engine reaches
// the L1 only through cachesim's ReadBurst, so access has no production
// caller (upgrade_test.go drives it directly).

// refRunPhase advances every core to the quota, one reference at a time:
// per reference it publishes the core clock twice, calls the general
// access path and updates CoreStats field by field.
func (s *System) refRunPhase(quota uint64) {
	n := s.p.Cores
	for {
		// Rescan the frontier: the smallest clock (lowest index winning
		// ties) and the second-smallest value.
		c := -1
		best := 0.0
		second := math.Inf(1)
		for i := 0; i < n; i++ {
			if s.done[i] {
				continue
			}
			ci := s.clock[i]
			switch {
			case c == -1:
				c, best = i, ci
			case ci < best:
				c, best, second = i, ci, best
			case ci < second:
				second = ci
			}
		}
		if c < 0 {
			return
		}
		// Step the minimum core until it crosses the runner-up or retires.
		st := &s.live[c]
		t := s.timing[c]
		gen := s.gens[c]
		bt := &s.batches[c]
		clock := s.clock[c]
		for {
			if bt.Empty() {
				bt.Refill(gen)
			}
			ref := bt.Refs[bt.Pos]
			bt.Pos++
			instr := uint64(ref.Gap) + 1
			st.Instructions += instr
			clock += float64(instr) * t.BaseCPI
			// The access path reads s.clock[c] (bus and memory queueing), so
			// the local clock is published before descending.
			s.clock[c] = clock
			lat := s.access(c, ref)
			clock += lat * t.Overlap
			s.clock[c] = clock
			st.Cycles = clock
			if st.Instructions >= quota {
				s.frozen[c] = *st
				s.done[c] = true
				break
			}
			if clock >= second {
				break
			}
		}
	}
}

// access runs one reference through the hierarchy and returns its raw
// latency (before the overlap factor).
func (s *System) access(c int, ref trace.Ref) float64 {
	block := ref.Addr >> s.lineShift
	st := &s.live[c]
	st.L1Accesses++
	if w, hit := s.l1s[c].Access(block); hit {
		st.L1Hits++
		if ref.Write {
			// The L1 line's state mirrors whether the inclusive L2 copy is
			// already Modified: the first store per L1 residency runs the
			// write-through upgrade, repeat stores skip the L2 probe. The
			// marker is cleared whenever the L2 copy leaves Modified while
			// the L1 copy survives (the M->S downgrade in remoteHit); every
			// other exit from Modified invalidates the L1 line too.
			l1 := s.l1s[c]
			line := l1.Line(l1.SetIndex(block), w)
			if line.State != cachesim.Modified {
				s.writeThroughHit(c, block)
				line.State = cachesim.Modified
			}
		}
		return 0 // L1 hit latency is folded into BaseCPI
	}
	return s.l2Demand(c, block, ref.Write)
}

// refRun mirrors System.Run over the frozen stepping loop.
func (s *System) refRun(warmup, instrPerCore uint64) Results {
	if warmup > 0 {
		s.refRunPhase(warmup)
		for i := range s.live {
			s.live[i] = CoreStats{}
			s.clock[i] = 0
			s.done[i] = false
		}
		s.bus.Reset()
		s.memPort.Reset()
	}
	s.refRunPhase(instrPerCore)
	res := Results{Policy: s.policy.Name(), Cores: make([]CoreStats, s.p.Cores)}
	copy(res.Cores, s.frozen)
	return res
}

// The shared-LLC machine's own per-reference loop, frozen the same way: the
// runPhase and access of the separate simulator type that ran §6.1 before
// NewShared built a System over the burst engine. Verbatim except for the
// receiver (*System), the aggregate L2's field name (llc), its hit latency
// (Params.L2LocalHitCycles) and the write-through's name
// (sharedWriteThrough). It pulls references straight from the generators,
// so an oracle System must not share generators with the engine under
// test. FuzzBurstEquivalence compares the engine against it.

// refSharedRun mirrors System.Run over the frozen shared-LLC loop.
func (s *System) refSharedRun(warmup, instrPerCore uint64) Results {
	if warmup > 0 {
		s.refSharedRunPhase(warmup)
		for i := range s.live {
			s.live[i] = CoreStats{}
			s.clock[i] = 0
			s.done[i] = false
		}
		s.memPort.Reset()
	}
	s.refSharedRunPhase(instrPerCore)
	res := Results{Policy: "shared-LLC", Cores: make([]CoreStats, s.p.Cores)}
	copy(res.Cores, s.frozen)
	return res
}

func (s *System) refSharedRunPhase(quota uint64) {
	for {
		c := -1
		best := 0.0
		for i := 0; i < s.p.Cores; i++ {
			if !s.done[i] && (c == -1 || s.clock[i] < best) {
				c = i
				best = s.clock[i]
			}
		}
		if c == -1 {
			return
		}
		ref := s.gens[c].Next()
		st := &s.live[c]
		t := s.timing[c]
		instr := uint64(ref.Gap) + 1
		st.Instructions += instr
		s.clock[c] += float64(instr) * t.BaseCPI
		lat := s.refSharedAccess(c, ref)
		s.clock[c] += lat * t.Overlap
		st.Cycles = s.clock[c]
		if st.Instructions >= quota {
			s.frozen[c] = *st
			s.done[c] = true
		}
	}
}

func (s *System) refSharedAccess(c int, ref trace.Ref) float64 {
	block := ref.Addr >> s.lineShift
	st := &s.live[c]
	st.L1Accesses++
	if _, hit := s.l1s[c].Access(block); hit {
		st.L1Hits++
		if ref.Write {
			s.sharedWriteThrough(c, block)
		}
		return 0
	}
	st.L2Accesses++
	w, hit := s.llc.Access(block)
	var lat float64
	if hit {
		line := s.llc.Line(s.llc.SetIndex(block), w)
		if ref.Write {
			s.invalidatePeerL1s(block, c)
			line.Dirty = true
			line.State = cachesim.Modified
		}
		st.L2LocalHits++
		lat = s.p.L2LocalHitCycles
	} else {
		mqd := s.memPort.Request(s.clock[c])
		st.QueueDelay += mqd
		lat = s.p.MemLatencyCycles + mqd
		st.L2MemFills++
		st.OffChip++
		state := cachesim.Exclusive
		if ref.Write {
			state = cachesim.Modified
			s.invalidatePeerL1s(block, c)
		}
		ev := s.llc.Insert(block, cachesim.InsertMRU, cachesim.Line{State: state, Dirty: ref.Write, Owner: int16(c)})
		if ev.Valid() {
			// Inclusion: back-invalidate every L1.
			for i := range s.l1s {
				s.l1s[i].Invalidate(ev.Tag)
			}
			if ev.Dirty {
				mq := s.memPort.Request(s.clock[c])
				st.QueueDelay += mq
				st.Writebacks++
				st.OffChip++
			}
		}
	}
	if _, ok := s.l1s[c].Lookup(block); !ok {
		s.l1s[c].Insert(block, cachesim.InsertMRU, cachesim.Line{State: cachesim.Exclusive, Owner: int16(c)})
	}
	st.LatencySum += lat
	return lat
}
