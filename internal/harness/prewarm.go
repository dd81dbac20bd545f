package harness

import (
	"fmt"
	"sort"

	"ascc/internal/rng"
	"ascc/internal/trace"
	"ascc/internal/trace/store"
	"ascc/internal/workload"
)

// prewarmStream is one arena the prewarmer will synthesise: its cache key,
// the generator that produces it, and how many references the
// configuration's runs will consume from it.
type prewarmStream struct {
	key  string
	gen  trace.Generator
	refs uint64
}

// prewarmRefs estimates how many references a run consumes from one
// stream: the instruction budget times the profile's reference rate, plus
// the replayer's extend-ahead margin so a real run never outruns the
// prewarmed prefix by a few batches.
func (r *Runner) prewarmRefs(refsPerKInstr float64) uint64 {
	instr := r.Cfg.WarmupInstr + r.Cfg.MeasureInstr
	return uint64(float64(instr)*refsPerKInstr/1000) + 32*1024
}

// prewarmStreams enumerates every distinct stream the experiment suite
// draws on under this configuration, deduplicated by arena key:
//
//   - "mix" streams for the evaluation's two- and four-application mixes
//     (widened to Config.Cores exactly as RunMix widens them) and for the
//     single-application baselines every speedup metric normalises
//     against;
//   - "single" streams for the way/set studies (Figs. 1-2);
//   - "mt" streams for the multithreaded workloads (4 threads, §6.3).
//
// The scaleout experiment's extra-wide replicas (16/32/64 cores) are
// deliberately not enumerated: they depend on widths chosen inside the
// experiment, so their arenas reach the store through eviction
// write-behind and FlushArenas on the first real scaleout run instead.
func (r *Runner) prewarmStreams() ([]prewarmStream, error) {
	var streams []prewarmStream
	seen := map[string]bool{}
	add := func(kind string, slot int, gen trace.Generator, rate float64) {
		key := r.arenaKey(kind, slot, gen.Name())
		if !seen[key] {
			seen[key] = true
			streams = append(streams, prewarmStream{key: key, gen: gen, refs: r.prewarmRefs(rate)})
		}
	}

	var mixes [][]int
	for _, p := range workload.Profiles() {
		mixes = append(mixes, []int{p.ID}) // AloneCPI baselines (never widened)
	}
	for _, mix := range append(workload.TwoAppMixes(), workload.FourAppMixes()...) {
		mixes = append(mixes, r.Cfg.extend(mix))
	}
	for _, mix := range mixes {
		gens, profs, err := workload.BuildMix(mix, r.Cfg.Seed, r.Cfg.Scale)
		if err != nil {
			return nil, err
		}
		for i, g := range gens {
			add("mix", i, g, profs[i].RefsPerKInstr)
		}
	}

	for _, p := range workload.Profiles() {
		add("single", 0, p.NewGenerator(rng.Mix64(r.Cfg.Seed+77), 0, r.Cfg.Scale), p.RefsPerKInstr)
	}

	const mtThreads = 4
	for _, p := range workload.MTProfiles() {
		gens := p.NewGenerators(mtThreads, rng.Mix64(r.Cfg.Seed^0x317), r.Cfg.Scale)
		for i, g := range gens {
			add("mt", i, g, p.RefsPerKInstr)
		}
	}
	return streams, nil
}

// PrewarmArenas synthesises every reference-stream arena the experiment
// suite draws on under this configuration — in parallel, bounded by the
// worker pool — and persists them to the configured arena store, so
// subsequent processes (runs, sweeps, CI jobs) replay from mmap'd files
// instead of regenerating. It first removes the temp files killed writers
// left in the store root (Store.RemoveStaleTemps). It returns how many
// distinct streams were warmed. Requires a store (Config.ArenaStoreDir);
// asccbench -prewarm is the CLI entry.
func (r *Runner) PrewarmArenas() (int, error) {
	if r.arenas.Store() == nil {
		return 0, fmt.Errorf("harness: prewarm requires a persistent arena store (Config.ArenaStoreDir)")
	}
	if st, ok := r.arenas.Store().(*store.Store); ok {
		if err := st.RemoveStaleTemps(); err != nil {
			return 0, err
		}
	}
	streams, err := r.prewarmStreams()
	if err != nil {
		return 0, err
	}
	// Longest first: the synthesis passes dominate wall clock, so keep the
	// big ones from starting last.
	sort.Slice(streams, func(i, j int) bool { return streams[i].refs > streams[j].refs })
	err = ForEach(len(streams), func(i int) error {
		r.pool.run(func() {
			// Get reads through to the store first: a prewarmed file only
			// re-extends when this configuration demands a longer prefix.
			r.arenas.Get(streams[i].key, streams[i].gen).Extend(streams[i].refs)
		})
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := r.FlushArenas(); err != nil {
		return 0, err
	}
	return len(streams), nil
}
