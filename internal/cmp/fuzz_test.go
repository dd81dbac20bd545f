package cmp

import (
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/trace"
)

// FuzzBurstEquivalence drives a random machine and reference stream through
// the engine (runPhase) and demands it bit-identical to the frozen
// per-reference stepping (refRun, refstep_test.go): frozen CoreStats, final
// core clocks, the complete L1 and L2 state (tags, line flags, recency
// stacks, set counters) and the batch cursors. The decoded input varies
// every event class the kernel can hit: quota and frontier cut points
// (diverse BaseCPI), write-hit upgrades (random store bits over a tiny
// block space), long L2-hit runs (read-heavy streams over an L1-thrashing
// L2-resident working set), batch wrap-around (streams longer than the
// 64-ref batch), an L1 on every branch of cachesim's Access (the
// unrolled 4- and 8-way rows, matchMask's loop at 2 ways, and the wide
// fallback of a fully associative cache past 16 ways), and the
// prefetcher. Every case also checks statistics conservation. At 1 and 2
// cores a second arm runs the shared-LLC machine (NewShared) on the same
// streams against its own frozen per-reference loop (refSharedRun).
func FuzzBurstEquivalence(f *testing.F) {
	f.Add([]byte("burst-kernel-seed"))
	f.Add([]byte{3, 1, 1, 9, 1, 0x10, 2, 1, 0x31, 5, 0, 0x52, 7, 1})
	f.Add([]byte{2, 0, 0, 200, 0, 0x21, 0, 0, 0x22, 1, 1, 0x23, 2, 0, 0x24, 3, 1})
	f.Add([]byte{0, 1, 1, 4, 1, 0xFF, 0, 1})
	// L2-hit-heavy: one core, 4-way L1, a read-only cycle over
	// 21 distinct blocks — far beyond the tiny L1 but L2-resident, so
	// nearly every access is a clean local L2 hit.
	f.Add([]byte{
		0, 1, 0, 120, 0,
		0, 1, 0, 3, 1, 0, 6, 1, 0, 9, 1, 0, 12, 1, 0, 15, 1, 0, 18, 1, 0,
		21, 1, 0, 24, 1, 0, 27, 1, 0, 30, 1, 0, 33, 1, 0, 36, 1, 0, 39, 1, 0,
		42, 1, 0, 45, 1, 0, 48, 1, 0, 51, 1, 0, 54, 1, 0, 57, 1, 0, 60, 1, 0,
	})
	// Upgrade-heavy: two cores, every reference a store over overlapping
	// blocks — Shared-line write-hit upgrades and first-store L1 upgrades
	// dominate.
	f.Add([]byte{
		1, 1, 1, 80, 16,
		0, 1, 1, 8, 1, 1, 16, 1, 1, 24, 1, 1, 0, 2, 1, 8, 2, 1,
		0, 1, 1, 8, 1, 1, 16, 1, 1, 24, 1, 1, 0, 2, 1, 16, 2, 1,
	})
	// Three cores, mixed read/write stream.
	f.Add([]byte{
		2, 1, 1, 60, 12,
		5, 1, 0, 10, 1, 1, 15, 1, 0, 20, 1, 0, 25, 1, 1, 30, 1, 0,
		35, 1, 0, 40, 1, 1, 45, 1, 0, 50, 1, 0, 55, 1, 1, 60, 1, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		cores := 1 + int(data[0]%3)
		useASCC := data[2]%2 == 1
		quota := 100 + uint64(data[3])*16
		warmup := uint64(0)
		if data[4]%2 == 1 {
			warmup = quota / 3
		}
		p := tinyParams(cores)
		// data[1] picks the L1's Access branch. Bit 1 alone selects 8 ways
		// (unrolled) and bit 3 alone a 20-way fully associative cache (the
		// wide fallback), both under a 1 KiB L2 so they can fill. Otherwise
		// bit 0 picks 2 ways (matchMask's loop) or 4 ways (unrolled). The
		// corpus files that predate the 8- and 20-way cases all have bits 1
		// and 3 clear, so they still decode to the same machine.
		switch data[1] & 0x0a {
		case 0x02:
			p.L1 = cachesim.Config{SizeBytes: 32 * 2 * 8, Ways: 8, LineBytes: 32}
			p.L2.SizeBytes = 1024
		case 0x08:
			p.L1 = cachesim.Config{SizeBytes: 32 * 20, Ways: 20, LineBytes: 32, FullyAssoc: true}
			p.L2.SizeBytes = 1024
		default:
			l1Ways := 2 << (data[1] % 2)
			p.L1 = cachesim.Config{SizeBytes: 32 * 2 * l1Ways, Ways: l1Ways, LineBytes: 32}
		}
		if data[4]&2 != 0 {
			p.Prefetch = true
			p.PrefetchEntries = 64
			p.PrefetchDegree = 2
		}
		// Per-core cyclic scripts from the tail bytes: 3 bytes per
		// reference over a 64-block space (heavy conflict pressure), with
		// store bits to force upgrade events.
		body := data[5:]
		per := len(body) / (3 * cores)
		if per == 0 {
			t.Skip()
		}
		script := func(core int) *scriptGen {
			refs := make([]trace.Ref, per)
			for i := range refs {
				b := body[(core*per+i)*3:]
				refs[i] = trace.Ref{
					Addr:  uint64(b[0]%64) * 32,
					Gap:   int32(b[1] % 8),
					Write: b[2]&1 == 1,
				}
			}
			return &scriptGen{name: "fuzz", refs: refs}
		}
		timing := make([]CoreTiming, cores)
		for i := range timing {
			timing[i] = CoreTiming{BaseCPI: 1 + float64((int(data[0])+i)%3)/2, Overlap: 0.5}
		}
		build := func() *System {
			gens := make([]trace.Generator, cores)
			for i := range gens {
				gens[i] = script(i)
			}
			var pol coop.Policy
			if useASCC {
				sets := p.L2.SizeBytes / p.L2.LineBytes / p.L2.Ways
				cfg := policies.AVGCCDefaultConfig(cores, sets, p.L2.Ways, 1)
				cfg.ResizePeriod = 50
				pol = policies.NewASCCVariant("AVGCC", cfg)
			} else {
				pol = policies.NewBaseline()
			}
			sys, err := New(p, gens, timing, pol)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}

		sys := build()
		oracle := build()
		gotRes := sys.Run(warmup, quota)
		wantRes := oracle.refRun(warmup, quota)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("results diverge:\nengine:  %+v\nper-ref: %+v", gotRes, wantRes)
		}
		if err := gotRes.Check(); err != nil {
			t.Error(err)
		}
		for i := 0; i < cores; i++ {
			if sys.clock[i] != oracle.clock[i] {
				t.Errorf("core %d clock: engine %v, per-ref %v", i, sys.clock[i], oracle.clock[i])
			}
			if sys.batches[i].Pos != oracle.batches[i].Pos {
				t.Errorf("core %d batch cursor: engine %d, per-ref %d",
					i, sys.batches[i].Pos, oracle.batches[i].Pos)
			}
			compareCaches(t, "L1", i, sys.l1s[i], oracle.l1s[i])
			compareCaches(t, "L2", i, sys.L2(i), oracle.L2(i))
		}

		// The shared-LLC arm: the same L1s and streams over one aggregate
		// L2 of cores x the private capacity (a power-of-two set count, so
		// 1 or 2 cores), against the frozen shared loop (refSharedRun). A
		// non-zero memory occupancy makes the queueing model read the lazily
		// published clock.
		if cores&(cores-1) != 0 {
			return
		}
		buildShared := func() *System {
			gens := make([]trace.Generator, cores)
			for i := range gens {
				gens[i] = script(i)
			}
			sys, err := NewShared(SharedParams{
				Cores:            cores,
				L1:               p.L1,
				L2:               cachesim.Config{SizeBytes: p.L2.SizeBytes * cores, Ways: p.L2.Ways, LineBytes: p.L2.LineBytes},
				HitCycles:        2 * p.L2LocalHitCycles,
				MemLatencyCycles: p.MemLatencyCycles,
				MemOccupancy:     16,
			}, gens, timing)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		shared, sharedOracle := buildShared(), buildShared()
		gotRes, wantRes = shared.Run(warmup, quota), sharedOracle.refSharedRun(warmup, quota)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("shared results diverge:\nengine:  %+v\nper-ref: %+v", gotRes, wantRes)
		}
		if err := gotRes.Check(); err != nil {
			t.Error(err)
		}
		for i := 0; i < cores; i++ {
			if shared.clock[i] != sharedOracle.clock[i] {
				t.Errorf("shared core %d clock: engine %v, per-ref %v", i, shared.clock[i], sharedOracle.clock[i])
			}
			compareCaches(t, "sharedL1", i, shared.l1s[i], sharedOracle.l1s[i])
		}
		compareCaches(t, "sharedL2", 0, shared.llc, sharedOracle.llc)
	})
}

// compareCaches demands identical observable cache state: per-set counters
// and recency stacks, and every line's tag and flags.
func compareCaches(t *testing.T, level string, core int, a, b *cachesim.Cache) {
	t.Helper()
	sets, ways := a.NumSets(), a.Ways()
	for si := 0; si < sets; si++ {
		if sa, sb := a.SetStatsFor(si), b.SetStatsFor(si); sa != sb {
			t.Errorf("%s[%d] set %d stats: engine %+v, per-ref %+v", level, core, si, sa, sb)
		}
		if ra, rb := a.RecencyStack(si), b.RecencyStack(si); !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s[%d] set %d recency: engine %v, per-ref %v", level, core, si, ra, rb)
		}
		for w := 0; w < ways; w++ {
			if la, lb := *a.Line(si, w), *b.Line(si, w); la != lb {
				t.Errorf("%s[%d] set %d way %d: engine %+v, per-ref %+v", level, core, si, w, la, lb)
			}
		}
	}
}
