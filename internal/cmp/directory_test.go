// The set-sharded directory at the full-system level: a differential fuzzer
// of directory vs broadcast coherence vs the frozen per-reference oracle. The
// group-level differential wall is cachesim's group_diff_test.go; the shard
// mechanics are cachesim's directory_test.go.
package cmp

import (
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
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
// directory: the engine with the directory (the default) and in broadcast
// mode (NoDirectory) run the same machine and reference streams, and both
// must be bit-identical — frozen CoreStats, final clocks, batch cursors,
// complete L1/L2 state — to the frozen per-reference broadcast oracle
// (refRun). The two modes must also answer the same number of coherence
// probes (the property that makes the scaling table's probe column an
// apples-to-apples A/B). Core counts reach 8 so holder masks cover more
// than 4 peers; ASCC variants exercise last-copy swaps and spills through
// the directory's remove/add paths.
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
		build := func(noDir bool) *System {
			pv := p
			pv.NoDirectory = noDir
			return fuzzSystem(t, pv, body, cores, useASCC, timing)
		}

		dir := build(false)
		bcast := build(true)
		oracle := build(true)
		dirRes := dir.Run(warmup, quota)
		bcastRes := bcast.Run(warmup, quota)
		wantRes := oracle.refRun(warmup, quota)

		for _, eng := range []struct {
			name string
			sys  *System
			res  Results
		}{{"directory", dir, dirRes}, {"broadcast", bcast, bcastRes}} {
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
		if dp, bp := dir.CoherenceProbes(), bcast.CoherenceProbes(); dp != bp {
			t.Errorf("probe counts diverge: directory %d, broadcast %d", dp, bp)
		}
	})
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
