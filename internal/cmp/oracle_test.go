// Scenario tests that pin the live engine (System.Run, the per-reference
// descent under the run-to-event burst kernel) against the frozen
// per-reference oracle (refRun) on hand-built machines: every policy family
// on a contended bus, the cross-core receiver-writeback clock path, the
// exact policy call sequence, and concurrent runs of a conflict-heavy
// machine. FuzzBurstEquivalence covers the same contract on random input;
// these keep the hard cases deterministic. The L2Batch and Parallel names
// are kept from the removed batched and speculative engines, whose
// scenarios these are.
package cmp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/rng"
	"ascc/internal/ssl"
	"ascc/internal/trace"
)

// buildOraclePair constructs the same machine twice with independent
// generator and policy instances: one for System.Run, one for refRun.
func buildOraclePair(t *testing.T, p Params, mkGens func() []trace.Generator,
	timing []CoreTiming, mkPol func() coop.Policy) (live, oracle *System) {
	t.Helper()
	var err error
	if live, err = New(p, mkGens(), timing, mkPol()); err != nil {
		t.Fatal(err)
	}
	if oracle, err = New(p, mkGens(), timing, mkPol()); err != nil {
		t.Fatal(err)
	}
	return live, oracle
}

// requireOracle demands bit-identical Results, clocks, batch cursors and
// cache state between a live run and its oracle twin.
func requireOracle(t *testing.T, live, oracle *System, got, want Results) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live engine diverges from oracle:\nlive:   %+v\noracle: %+v", got, want)
	}
	for i := range live.clock {
		if live.clock[i] != oracle.clock[i] {
			t.Errorf("core %d clock: live %v, oracle %v", i, live.clock[i], oracle.clock[i])
		}
		if live.batches[i].Pos != oracle.batches[i].Pos {
			t.Errorf("core %d batch cursor: live %d, oracle %d", i, live.batches[i].Pos, oracle.batches[i].Pos)
		}
		compareCaches(t, "L1", i, live.l1s[i], oracle.l1s[i])
		compareCaches(t, "L2", i, live.L2(i), oracle.L2(i))
	}
}

// TestL2BatchEquivalenceAcrossPolicies runs the live engine and the oracle
// over every policy family on a contended machine (nonzero bus and memory
// occupancies, so queue-delay values depend on exact request ordering and
// timestamps) and demands bit-identical results.
func TestL2BatchEquivalenceAcrossPolicies(t *testing.T) {
	p := tinyParams(3)
	p.BusOccupancy = 4
	p.MemOccupancy = 16
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	pols := map[string]func() coop.Policy{
		"baseline": func() coop.Policy { return policies.NewBaseline() },
		"CC":       func() coop.Policy { return policies.NewCC(3, 7) },
		"DSR":      func() coop.Policy { return policies.NewDSR(3, sets, p.L2.Ways, 7) },
		"ASCC":     func() coop.Policy { return policies.NewASCC(3, sets, p.L2.Ways, 7) },
		"AVGCC": func() coop.Policy {
			cfg := policies.AVGCCDefaultConfig(3, sets, p.L2.Ways, 7)
			cfg.ResizePeriod = 64
			return policies.NewASCCVariant("AVGCC", cfg)
		},
		"QoS-AVGCC": func() coop.Policy {
			cfg := policies.AVGCCDefaultConfig(3, sets, p.L2.Ways, 7)
			cfg.ResizePeriod = 64
			cfg.QoS = true
			return policies.NewASCCVariant("QoS-AVGCC", cfg)
		},
	}
	mkGens := func() []trace.Generator {
		return []trace.Generator{
			&scriptGen{name: "storm", refs: append(loopRefs(0, 4, 6, 1), trace.Ref{Addr: 0, Gap: 1, Write: true})},
			&scriptGen{name: "light", refs: loopRefs(1, 4, 3, 2)},
			&scriptGen{name: "mixed", refs: append(loopRefs(2, 4, 5, 1), trace.Ref{Addr: 2 * 32, Gap: 3, Write: true})},
		}
	}
	for name, mkPol := range pols {
		t.Run(name, func(t *testing.T) {
			live, oracle := buildOraclePair(t, p, mkGens, evenTiming(3), mkPol)
			got := live.Run(500, 4000)
			want := oracle.refRun(500, 4000)
			requireOracle(t, live, oracle, got, want)
		})
	}
}

// TestL2BatchClockContract pins the clock every below-L1 port request
// observes: the stepping core's running clock for its own traffic, and the
// receiver's published clock for receiver-side dirty writebacks triggered
// by an incoming spill. The scenario forces exactly that cross-core path:
// core 1 dirties never-reused lines in set 0 (dead, dirty — guest-admission
// victims), then decays its SSL with L2 hits elsewhere so it turns
// receiver, while core 0 saturates set 0 with reused last-copy victims that
// spill into core 1 and displace the dirty lines. With nonzero occupancies,
// an engine reading the wrong clock would shift the writeback's queue delay
// and diverge from the oracle.
func TestL2BatchClockContract(t *testing.T) {
	p := tinyParams(2)
	p.BusOccupancy = 4
	p.MemOccupancy = 16
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	mkPol := func() coop.Policy {
		cfg := policies.AVGCCDefaultConfig(2, sets, p.L2.Ways, 3)
		cfg.ResizePeriod = 1 << 20 // no resizes: roles evolve only via SSL
		cfg.Granularity = 0        // per-set counters
		cfg.Dynamic = false
		return policies.NewASCCVariant("ASCC", cfg)
	}
	mkGens := func() []trace.Generator {
		// Core 0: L2 set-0 storm, re-references at distance 3 (past the
		// 2-way L1, inside the 4-way L2) so victims are reused.
		storm := make([]trace.Ref, 0, 10)
		for _, b := range []uint64{0, 4, 8, 12, 0, 4, 8, 12, 16, 20} {
			storm = append(storm, trace.Ref{Addr: b * 32, Gap: 1})
		}
		// Core 1: dirty four set-0 blocks once (dead + dirty guests-to-be),
		// then loop L2 hits in sets 1-3 to decay the set-0 SSL's cache-wide
		// pressure and keep the cache receiving.
		recv := []trace.Ref{
			{Addr: 24 * 32, Gap: 1, Write: true}, {Addr: 28 * 32, Gap: 1, Write: true},
			{Addr: 32 * 32, Gap: 1, Write: true}, {Addr: 36 * 32, Gap: 1, Write: true},
		}
		recv = append(recv, loopRefs(1, 4, 6, 1)...)
		recv = append(recv, loopRefs(2, 4, 6, 1)...)
		return []trace.Generator{
			&scriptGen{name: "storm", refs: storm},
			&scriptGen{name: "recv", refs: recv},
		}
	}
	live, oracle := buildOraclePair(t, p, mkGens, evenTiming(2), mkPol)
	got := live.Run(0, 6000)
	want := oracle.refRun(0, 6000)
	requireOracle(t, live, oracle, got, want)
	if got.Cores[0].SpillsOut == 0 && got.Cores[0].Swaps == 0 {
		t.Fatalf("scenario failed to spill or swap: %+v", got.Cores[0])
	}
	if got.Cores[1].Writebacks == 0 {
		t.Fatalf("scenario produced no receiver-side writebacks: %+v", got.Cores[1])
	}
	if got.Cores[1].QueueDelay == 0 {
		t.Fatalf("receiver accrued no queue delay: %+v", got.Cores[1])
	}
}

// spyPolicy wraps a real policy and records the full call sequence,
// including returned values where they feed the engine's decisions.
type spyPolicy struct {
	inner coop.Policy
	log   []string
}

func (s *spyPolicy) rec(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

func (s *spyPolicy) Name() string { return s.inner.Name() }
func (s *spyPolicy) OnL2Access(c, set int, hit bool) {
	s.rec("OnL2Access(%d,%d,%v)", c, set, hit)
	s.inner.OnL2Access(c, set, hit)
}
func (s *spyPolicy) Role(c, set int) ssl.Role {
	r := s.inner.Role(c, set)
	s.rec("Role(%d,%d)=%v", c, set, r)
	return r
}
func (s *spyPolicy) Receivers(c, set int) []int {
	r := s.inner.Receivers(c, set)
	s.rec("Receivers(%d,%d)=%v", c, set, r)
	return r
}
func (s *spyPolicy) OnSpillFail(c, set int) {
	s.rec("OnSpillFail(%d,%d)", c, set)
	s.inner.OnSpillFail(c, set)
}
func (s *spyPolicy) InsertPos(c, set int) cachesim.InsertPos {
	p := s.inner.InsertPos(c, set)
	s.rec("InsertPos(%d,%d)=%v", c, set, p)
	return p
}
func (s *spyPolicy) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	p := s.inner.SpillInsertPos(c, set, guestReused)
	s.rec("SpillInsertPos(%d,%d,%v)=%v", c, set, guestReused, p)
	return p
}
func (s *spyPolicy) AllowRespill() bool       { return s.inner.AllowRespill() }
func (s *spyPolicy) SpillRequiresReuse() bool { return s.inner.SpillRequiresReuse() }
func (s *spyPolicy) SwapEnabled() bool        { return s.inner.SwapEnabled() }
func (s *spyPolicy) GuestVictim() coop.GuestVictimMode {
	return s.inner.GuestVictim()
}
func (s *spyPolicy) DemandVictimAllow(c, set int) func(int) bool {
	return s.inner.DemandVictimAllow(c, set)
}
func (s *spyPolicy) SpillVictimAllow(c, set int) func(int) bool {
	return s.inner.SpillVictimAllow(c, set)
}
func (s *spyPolicy) Tick(c int, accesses uint64) {
	s.rec("Tick(%d,%d)", c, accesses)
	s.inner.Tick(c, accesses)
}

// TestL2BatchPolicyCallSequence proves the burst kernel's stepping is
// unobservable to policies: the exact sequence of policy invocations
// (training events, ticks, roles, receiver draws, insertion positions —
// with arguments and returned values) is identical to the oracle's.
func TestL2BatchPolicyCallSequence(t *testing.T) {
	p := tinyParams(2)
	p.BusOccupancy = 2
	p.MemOccupancy = 8
	sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
	mkSpy := func() *spyPolicy {
		cfg := policies.AVGCCDefaultConfig(2, sets, p.L2.Ways, 11)
		cfg.ResizePeriod = 32
		return &spyPolicy{inner: policies.NewASCCVariant("AVGCC", cfg)}
	}
	mkGens := func() []trace.Generator {
		return []trace.Generator{
			&scriptGen{name: "a", refs: append(loopRefs(0, 4, 6, 1), trace.Ref{Addr: 4 * 32, Gap: 1, Write: true})},
			&scriptGen{name: "b", refs: loopRefs(1, 4, 3, 2)},
		}
	}
	spyLive, spyOracle := mkSpy(), mkSpy()
	live, err := New(p, mkGens(), evenTiming(2), spyLive)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := New(p, mkGens(), evenTiming(2), spyOracle)
	if err != nil {
		t.Fatal(err)
	}
	got := live.Run(200, 2500)
	want := oracle.refRun(200, 2500)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results diverge under spy:\nlive:   %+v\noracle: %+v", got, want)
	}
	if len(spyLive.log) == 0 {
		t.Fatal("spy recorded no policy calls")
	}
	if len(spyLive.log) != len(spyOracle.log) {
		t.Fatalf("call counts diverge: live %d, oracle %d", len(spyLive.log), len(spyOracle.log))
	}
	for i := range spyLive.log {
		if spyLive.log[i] != spyOracle.log[i] {
			t.Fatalf("call %d diverges:\nlive:   %s\noracle: %s", i, spyLive.log[i], spyOracle.log[i])
		}
	}
}

// parTestSystem builds a conflict-heavy shared-traffic machine: every core
// draws random mostly-read references from the same 64-block space, so
// bursts are short and misses and holder churn constant.
func parTestSystem(t *testing.T, cores int) *System {
	t.Helper()
	r := rng.New(0x5eed)
	body := make([]byte, 3*cores*40)
	for i := range body {
		body[i] = byte(r.Uint64())
	}
	timing := make([]CoreTiming, cores)
	for i := range timing {
		timing[i] = CoreTiming{BaseCPI: 1 + float64(i%3)/2, Overlap: 0.5}
	}
	return fuzzSystem(t, tinyParams(cores), body, cores, true, timing)
}

// TestParallelDeterminism pins the determinism the harness's across-run
// parallelism relies on: copies of the same 8-core machine run at once on
// separate goroutines each produce the oracle's bit-identical results —
// frozen stats, final clocks, complete cache state. Under `make race` this
// also checks that Systems share no mutable state.
func TestParallelDeterminism(t *testing.T) {
	const cores, quota, copies = 8, 30_000, 4
	oracle := parTestSystem(t, cores)
	want := oracle.refRun(quota/10, quota)
	systems := make([]*System, copies)
	results := make([]Results, copies)
	for i := range systems {
		systems[i] = parTestSystem(t, cores)
	}
	var wg sync.WaitGroup
	for i := range systems {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = systems[i].Run(quota/10, quota)
		}(i)
	}
	wg.Wait()
	for i, sys := range systems {
		requireOracle(t, sys, oracle, results[i], want)
	}
}
