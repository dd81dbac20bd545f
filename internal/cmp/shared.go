package cmp

import (
	"fmt"

	"ascc/internal/cachesim"
	"ascc/internal/trace"
)

// SharedParams describes the shared-LLC alternative the paper simulates in
// §6.1: one LLC of the private caches' aggregate capacity, banked and
// address-interleaved, accessed by every core at a uniform average latency
// (≈2× the private local-hit latency for 2 cores, ≈4× for 4).
type SharedParams struct {
	Cores int

	L1 cachesim.Config
	L2 cachesim.Config // the aggregate shared cache

	HitCycles        float64 // average banked-access latency
	MemLatencyCycles float64
	MemOccupancy     float64

	// SampleDen, when > 1, runs the set-sampled fast path (DESIGN.md §16) on
	// streams filtered with the private machine's SampleSpec: the aggregate
	// L2's set count is a multiple of the same residue granule, and with no
	// cooperative policy there is nothing to translate.
	SampleDen int
}

// DefaultSharedParams mirrors DefaultParams with the aggregate shared LLC:
// capacity scales with the core count and the average hit latency follows
// the paper's "almost twice / almost four times" description.
func DefaultSharedParams(cores, scale int) SharedParams {
	p := DefaultParams(cores, scale)
	return SharedParams{
		Cores:            cores,
		L1:               p.L1,
		L2:               cachesim.Config{SizeBytes: p.L2.SizeBytes * cores, Ways: p.L2.Ways, LineBytes: p.L2.LineBytes},
		HitCycles:        p.L2LocalHitCycles * float64(max(cores, 2)),
		MemLatencyCycles: p.MemLatencyCycles,
		MemOccupancy:     p.MemOccupancy,
	}
}

// NewShared builds the shared-LLC CMP: the private machine's cores, L1s
// and stepping engine over one aggregate L2. All caches are write-back in
// this configuration (paper §6.1). The machine keeps the exact per-reference
// sync (Params.SyncSlack 0) at every fidelity.
func NewShared(sp SharedParams, gens []trace.Generator, timing []CoreTiming) (*System, error) {
	s, _, err := newSystem(Params{
		Cores:            sp.Cores,
		L1:               sp.L1,
		L2:               sp.L2,
		L2LocalHitCycles: sp.HitCycles,
		MemLatencyCycles: sp.MemLatencyCycles,
		MemOccupancy:     sp.MemOccupancy,
		SampleDen:        sp.SampleDen,
	}, gens, timing)
	if err != nil {
		return nil, err
	}
	s.llc = cachesim.New(s.p.L2)
	return s, nil
}

// sharedDemand handles an L1 miss on the shared-LLC machine: the aggregate
// L2 at the uniform banked latency (Params.L2LocalHitCycles), else memory.
func (s *System) sharedDemand(c int, block uint64, write bool) float64 {
	st := &s.live[c]
	st.L2Accesses++
	w, hit := s.llc.Access(block)
	var lat float64
	if hit {
		line := s.llc.Line(s.llc.SetIndex(block), w)
		if write {
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
		if write {
			state = cachesim.Modified
			s.invalidatePeerL1s(block, c)
		}
		ev := s.llc.Insert(block, cachesim.InsertMRU, cachesim.Line{State: state, Dirty: write, Owner: int16(c)})
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
	s.fillL1(c, block)
	st.LatencySum += lat
	return lat
}

// sharedWriteThrough propagates an L1 store hit into the shared L2 and
// keeps peer L1s coherent. The caller leaves the L1 line's Modified marker
// clear: a peer's later read re-shares the block without clearing it, so
// only writing through on every store hit keeps that peer's copy from
// going stale.
func (s *System) sharedWriteThrough(c int, block uint64) {
	w, ok := s.llc.Lookup(block)
	if !ok {
		panic(fmt.Sprintf("cmp: inclusion violated: block %#x in L1[%d] but not the shared L2", block, c))
	}
	s.invalidatePeerL1s(block, c)
	line := s.llc.Line(s.llc.SetIndex(block), w)
	line.Dirty = true
	line.State = cachesim.Modified
}

func (s *System) invalidatePeerL1s(block uint64, c int) {
	for i := range s.l1s {
		if i != c {
			s.l1s[i].Invalidate(block)
		}
	}
}
