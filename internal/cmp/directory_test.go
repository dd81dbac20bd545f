// The set-sharded directory at the full-system level: a differential fuzzer
// of the geometry-selected coherence mode vs the forced directory vs the
// frozen per-reference oracle, and a scripted machine wide enough that
// NewGroup picks the directory itself. The group-level differential wall is
// cachesim's group_diff_test.go; the shard mechanics are cachesim's
// directory_test.go.
package cmp

import (
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/rng"
	"ascc/internal/trace"
)

// fuzzSystem builds one system over per-core cyclic scripts decoded from the
// fuzz body (3 bytes per reference over a 64-block space, as in
// FuzzBurstEquivalence — heavy cross-core sharing by construction).
func fuzzSystem(t *testing.T, p Params, body []byte, cores int, useASCC bool, timing []CoreTiming) *System {
	t.Helper()
	per := len(body) / (3 * cores)
	gens := make([]trace.Generator, cores)
	for core := range gens {
		refs := make([]trace.Ref, per)
		for i := range refs {
			b := body[(core*per+i)*3:]
			refs[i] = trace.Ref{
				Addr:  uint64(b[0]%64) * 32,
				Gap:   int32(b[1] % 8),
				Write: b[2]&1 == 1,
			}
		}
		gens[core] = &scriptGen{name: "fuzz", refs: refs}
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

// FuzzDirectoryEquivalence is the differential wall for the coherence
// directory: the system as built (the coherence mode cachesim.NewGroup picks
// from the geometry — the fused broadcast scan at these widths) and the same
// build with the directory forced on right after New run the same machine
// and reference streams, and both must be bit-identical — frozen CoreStats,
// final clocks, batch cursors, complete L1/L2 state — to the frozen
// per-reference oracle (refRun) on the geometry's own mode. The two modes
// must also answer the same number of coherence probes (the property that
// makes the scaling table's probe column comparable across core counts).
// Core counts reach 8 so holder masks cover more than 4 peers; ASCC variants
// exercise last-copy swaps and spills through the directory's remove/add
// paths.
func FuzzDirectoryEquivalence(f *testing.F) {
	f.Add([]byte("directory-differential-seed"))
	// 8 cores, ASCC, every core hammering blocks 0/1 —
	// holder masks with 7 peers from the first few turns.
	f.Add([]byte{6, 1, 1, 0x40, 0x0c,
		0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 2, 0, 1, 2, 1,
		0, 0, 1, 1, 3, 0, 0, 1, 1, 1, 0, 0, 0, 2, 1, 1, 1, 0,
		0, 4, 0, 1, 0, 1, 0, 1, 0, 1, 2, 1})
	// 6 cores, baseline + prefetch, striding writes over the block space.
	f.Add([]byte{4, 0, 0, 0x20, 0x06,
		0, 1, 1, 8, 1, 0, 16, 1, 1, 24, 1, 0, 32, 1, 1, 40, 1, 0,
		48, 1, 1, 56, 1, 0, 4, 1, 1, 12, 1, 0, 20, 1, 1, 28, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			t.Skip()
		}
		cores := 2 + int(data[0]%7) // 2..8: past the 4-core golden config
		l1Ways := 2 << (data[1] % 2)
		useASCC := data[2]%2 == 1
		quota := 100 + uint64(data[3])*16
		warmup := uint64(0)
		if data[4]%2 == 1 {
			warmup = quota / 3
		}
		p := tinyParams(cores)
		p.L1 = cachesim.Config{SizeBytes: 32 * 2 * l1Ways, Ways: l1Ways, LineBytes: 32}
		if data[4]&2 != 0 {
			p.Prefetch = true
			p.PrefetchEntries = 64
			p.PrefetchDegree = 2
		}
		body := data[5:]
		if len(body)/(3*cores) == 0 {
			t.Skip()
		}
		timing := make([]CoreTiming, cores)
		for i := range timing {
			timing[i] = CoreTiming{BaseCPI: 1 + float64((int(data[0])+i)%3)/2, Overlap: 0.5}
		}
		build := func(forceDirectory bool) *System {
			sys := fuzzSystem(t, p, body, cores, useASCC, timing)
			if forceDirectory {
				sys.group.EnableDirectory()
			}
			return sys
		}

		geom := build(false)
		dir := build(true)
		oracle := build(false)
		geomRes := geom.Run(warmup, quota)
		dirRes := dir.Run(warmup, quota)
		wantRes := oracle.refRun(warmup, quota)

		for _, eng := range []struct {
			name string
			sys  *System
			res  Results
		}{{"geometry", geom, geomRes}, {"directory", dir, dirRes}} {
			if !reflect.DeepEqual(eng.res, wantRes) {
				t.Errorf("%s results diverge:\ngot:  %+v\nwant: %+v", eng.name, eng.res, wantRes)
			}
			for i := 0; i < cores; i++ {
				if eng.sys.clock[i] != oracle.clock[i] {
					t.Errorf("%s core %d clock: got %v, want %v", eng.name, i, eng.sys.clock[i], oracle.clock[i])
				}
				if eng.sys.batches[i].Pos != oracle.batches[i].Pos {
					t.Errorf("%s core %d batch cursor: got %d, want %d",
						eng.name, i, eng.sys.batches[i].Pos, oracle.batches[i].Pos)
				}
				compareCaches(t, "L1/"+eng.name, i, eng.sys.l1s[i], oracle.l1s[i])
				compareCaches(t, "L2/"+eng.name, i, eng.sys.L2(i), oracle.L2(i))
			}
		}
		if gp, dp := geom.CoherenceProbes(), dir.CoherenceProbes(); gp != dp {
			t.Errorf("probe counts diverge: geometry-selected %d, directory %d", gp, dp)
		}
	})
}

// TestDirectoryPastFusedRow runs a machine whose ganged L2 row is too wide
// for the fused scan (12 cores x 8 ways = 96 > 64), so cachesim.NewGroup
// builds the directory itself: the engine must match the frozen oracle bit
// for bit, and at the end the directory's holder mask for every block of the
// 64-block space must equal the one recomputed from the caches' contents.
func TestDirectoryPastFusedRow(t *testing.T) {
	const cores, quota = 12, 20_000
	p := tinyParams(cores)
	p.L2 = cachesim.Config{SizeBytes: 1024, Ways: 8, LineBytes: 32}
	build := func() *System {
		r := rng.New(0xd12)
		body := make([]byte, 3*cores*40)
		for i := range body {
			body[i] = byte(r.Uint64())
		}
		sys := fuzzSystem(t, p, body, cores, true, evenTiming(cores))
		if !sys.group.DirectoryEnabled() {
			t.Fatalf("%d cores x %d L2 ways: NewGroup kept the broadcast scan", cores, p.L2.Ways)
		}
		return sys
	}
	live, oracle := build(), build()
	got := live.Run(quota/10, quota)
	want := oracle.refRun(quota/10, quota)
	requireOracle(t, live, oracle, got, want)
	if live.CoherenceProbes() != oracle.CoherenceProbes() || live.CoherenceProbes() == 0 {
		t.Errorf("probe counts: live %d, oracle %d", live.CoherenceProbes(), oracle.CoherenceProbes())
	}

	recomputed := map[uint64]uint64{}
	for c := 0; c < cores; c++ {
		live.L2(c).ForEachLine(func(_, _ int, l *cachesim.Line) { recomputed[l.Tag] |= 1 << uint(c) })
	}
	if len(recomputed) == 0 {
		t.Fatal("no resident L2 lines at the end of the run")
	}
	for block := uint64(0); block < 64; block++ {
		if got, want := live.group.HolderMask(block), recomputed[block]; got != want {
			t.Fatalf("directory holders of block %d = %b, caches hold it in %b", block, got, want)
		}
	}
}

// TestValidateParallelParams pins the many-core machine-description limits:
// up to 64 cores (the holder-mask word) validate, more do not.
func TestValidateParallelParams(t *testing.T) {
	base := tinyParams(4)
	cases := []struct {
		name string
		mod  func(*Params)
		ok   bool
	}{
		{"default", func(p *Params) {}, true},
		{"max_cores", func(p *Params) { p.Cores = 64 }, true},
		{"over_64_cores", func(p *Params) { p.Cores = 65 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mod(&p)
			err := p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid params accepted")
			}
		})
	}
}
