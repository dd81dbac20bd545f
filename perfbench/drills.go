package main

import (
	"fmt"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"time"

	"ascc/internal/cachesim"
	"ascc/internal/cmp"
	"ascc/internal/harness"
	"ascc/internal/rng"
	"ascc/internal/trace"
	"ascc/internal/trace/store"
	"ascc/internal/workload"
)

// streamGroup is a set of a workload's reference streams that run on one
// machine: the isolated layer drills take their geometry, core count and
// set sample from params.
type streamGroup struct {
	label  string
	params cmp.Params
	build  func() ([]trace.Generator, error) // fresh generators
	refs   int                               // references per stream
}

func (m *mix4Instance) drills() []streamGroup {
	return []streamGroup{mixGroup("mix4", m.cfg, mix4, 1<<20)}
}

func (s *storedInstance) drills() []streamGroup {
	if s.name == suiteSampled {
		return []streamGroup{mixGroup("mix4/1-8", s.cfg, mix4, 1<<20)}
	}
	cfg := mtConfig(s.cfg)
	var gs []streamGroup
	for _, p := range workload.MTProfiles() {
		p := p
		gs = append(gs, streamGroup{
			label:  "mt/" + p.Name,
			params: cfg.Params(4),
			build: func() ([]trace.Generator, error) {
				// The multithreaded runs' stream seed (harness.Runner.RunMT).
				return p.NewGenerators(4, rng.Mix64(cfg.Seed^0x317), cfg.Scale), nil
			},
			refs: 1 << 18,
		})
	}
	return append(gs, mixGroup("scaleout/64", s.cfg, workload.ExtendMix(mix4, 64), 1<<16))
}

func mixGroup(label string, cfg harness.Config, mix []int, refs int) streamGroup {
	return streamGroup{
		label:  label,
		params: cfg.Params(len(mix)),
		build: func() ([]trace.Generator, error) {
			gens, _, err := workload.BuildMix(mix, cfg.Seed, cfg.Scale)
			return gens, err
		},
		refs: refs,
	}
}

// drillTotals accumulates work and host time over every drill.
type drillTotals struct {
	buildS                      float64
	synthRefs, synthS           float64
	packRefs, packS             float64
	replayRefs, replayS         float64
	filterRefs, filterS         float64
	saveS, saveBytes            float64
	loadS, loadRefs, corrupt    float64
	burstRefs, burstS           float64
	l2Refs, l2S, probes, probeS float64
	hookCalls, hookS            float64
}

func (d *drillTotals) metrics(m map[string]float64) {
	m["workload.build_s"] = d.buildS
	m["workload.synth_refs_per_s"] = d.synthRefs / d.synthS
	m["trace.pack_refs_per_s"] = d.packRefs / d.packS
	m["trace.replay_refs_per_s"] = d.replayRefs / d.replayS
	m["trace.filter_refs_per_s"] = d.filterRefs / d.filterS
	m["store.save_s"] = d.saveS
	m["store.save_mb_per_s"] = d.saveBytes / (1 << 20) / d.saveS
	m["store.load_s"] = d.loadS
	m["store.load_refs_per_s"] = d.loadRefs / d.loadS
	m["store.bytes"] = d.saveBytes
	m["store.corrupt"] = d.corrupt
	m["cachesim.burst_ns_per_ref"] = d.burstS * 1e9 / d.burstRefs
	m["cachesim.l2_access_ns"] = d.l2S * 1e9 / d.l2Refs
	m["cachesim.probe_ns"] = d.probeS * 1e9 / d.probes
	m["policies.hook_ns"] = d.hookS * 1e9 / d.hookCalls
}

// batchRefs is the decode buffer of the stream drills.
const batchRefs = 4096

// runDrills times each layer in isolation on the workload's own streams:
// synthesis, packing, replay, the sample filter, the store's save and
// load, the L1 burst kernel, L2 access and insert on the L1 misses, the
// directory's holder-mask probe, and the recorded policy hooks.
func runDrills(e *env, groups []streamGroup, hooks hookSource, parent spanID) (drillTotals, error) {
	var d drillTotals
	for _, g := range groups {
		var err error
		e.tr.timed("perfbench.drill."+g.label, parent, func(id spanID) { err = d.group(e, g, id) })
		if err != nil {
			return d, fmt.Errorf("drill %s: %w", g.label, err)
		}
	}
	if hooks.hookRecorder == nil || len(hooks.recs) == 0 {
		return d, fmt.Errorf("no policy hooks were recorded")
	}
	pol, err := harness.NewPolicy(harness.PAVGCC, hooks.cores, hooks.sets, hooks.ways, hooks.seed, hooks.period)
	if err != nil {
		return d, err
	}
	d.hookS = e.tr.timed("policies.replay", parent, func(spanID) { replayHooks(pol, hooks.recs) }).Seconds()
	d.hookCalls = float64(len(hooks.recs))
	return d, nil
}

func (d *drillTotals) group(e *env, g streamGroup, parent spanID) error {
	var gens []trace.Generator
	var err error
	d.buildS += e.tr.timed("workload.Build", parent, func(spanID) { gens, err = g.build() }).Seconds()
	if err != nil {
		return err
	}
	buf := make([]trace.Ref, batchRefs)
	refs := roundUp(g.refs, batchRefs)

	// Synthesis: live generators drained one reference at a time.
	d.synthS += e.tr.timed("workload.FillBatch", parent, func(spanID) {
		for _, gen := range gens {
			for n := 0; n < refs; n += batchRefs {
				trace.FillBatch(gen, buf)
			}
		}
	}).Seconds()
	d.synthRefs += float64(refs * len(gens))

	// Packing, with a margin so the filtered and kernel drills below never
	// replay past the packed prefix into live synthesis.
	if gens, err = g.build(); err != nil {
		return err
	}
	packed := uint64(refs + refs/4 + 64*batchRefs)
	arenas := make([]*trace.Arena, len(gens))
	d.packS += e.tr.timed("trace.Pack", parent, func(spanID) {
		for i, gen := range gens {
			arenas[i] = trace.NewArena(gen)
			arenas[i].Extend(packed)
		}
	}).Seconds()
	d.packRefs += float64(packed) * float64(len(gens))

	d.replayS += e.tr.timed("trace.Replay", parent, func(spanID) {
		for _, a := range arenas {
			rp := a.NewReplayer()
			for n := 0; n < refs; n += batchRefs {
				rp.NextBatch(buf)
			}
		}
	}).Seconds()
	d.replayRefs += float64(refs * len(arenas))

	fp := g.params
	if fp.SampleDen <= 1 {
		fp.SampleDen = sampleDen
	}
	spec, err := fp.SampleSpec()
	if err != nil {
		return err
	}
	d.filterS += e.tr.timed("trace.Filter", parent, func(spanID) {
		for _, a := range arenas {
			src := &trace.Counted{Generator: a.NewReplayer()}
			v := spec.View(src)
			for src.N < uint64(refs) {
				v.NextBatch(buf[:256])
			}
			d.filterRefs += float64(src.N)
		}
	}).Seconds()

	if err := d.storeDrill(e, g, arenas, parent); err != nil {
		return err
	}

	// The cache drills run on the stream the workload's machine sees: the
	// filtered, rewritten one on compact geometry when it samples.
	l1cfg, l2cfg := g.params.L1, g.params.L2
	stream := func(a *trace.Arena) trace.Generator { return a.NewReplayer() }
	kernelRefs := refs
	if g.params.SampleDen > 1 {
		den := g.params.SampleDen
		if l1cfg, err = cachesim.SampledConfig(l1cfg, den); err != nil {
			return err
		}
		if l2cfg, err = cachesim.SampledConfig(l2cfg, den); err != nil {
			return err
		}
		stream = func(a *trace.Arena) trace.Generator { return spec.View(a.NewReplayer()) }
		kernelRefs = roundUp(refs/den, batchRefs)
	}
	misses := make([][]uint64, len(arenas))
	burst := e.tr.begin("cachesim.ReadBurst", parent)
	for i, a := range arenas {
		var s float64
		misses[i], s = burstDrill(l1cfg, stream(a), kernelRefs)
		d.burstS += s
		d.burstRefs += float64(kernelRefs)
	}
	e.tr.end(burst)

	d.l2S += e.tr.timed("cachesim.Access", parent, func(spanID) {
		for _, ms := range misses {
			l2 := cachesim.New(l2cfg)
			for _, b := range ms {
				if _, hit := l2.Access(b); !hit {
					l2.Insert(b, cachesim.InsertMRU, cachesim.Line{State: cachesim.Exclusive})
				}
			}
			d.l2Refs += float64(len(ms))
		}
	}).Seconds()

	// Holder-mask probes against a directory-backed group populated with
	// every stream's misses, interleaved across the members.
	grp := cachesim.NewGroup(len(misses), l2cfg)
	grp.EnableDirectory()
	interleave(misses, func(c int, b uint64) {
		m := grp.Cache(c)
		if _, hit := m.Access(b); !hit {
			m.Insert(b, cachesim.InsertMRU, cachesim.Line{State: cachesim.Exclusive, Owner: int16(c)})
		}
	})
	var sink uint64
	d.probeS += e.tr.timed("cachesim.HolderMask", parent, func(spanID) {
		interleave(misses, func(_ int, b uint64) { sink |= grp.HolderMask(b) })
	}).Seconds()
	d.probes += float64(grp.Probes())
	if grp.Probes() > 0 && sink == 0 {
		return fmt.Errorf("no probed block had a holder")
	}
	return nil
}

// storeDrill saves the packed arenas into a fresh store and loads them
// back through a second, fresh store over the same directory.
func (d *drillTotals) storeDrill(e *env, g streamGroup, arenas []*trace.Arena, parent spanID) error {
	dir, err := os.MkdirTemp(e.work, "drill-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	key := func(i int) string { return fmt.Sprintf("drill/%s/%d/%s", g.label, i, arenas[i].Name()) }
	st := store.New(dir)
	d.saveS += e.tr.timed("store.Save", parent, func(spanID) {
		for i, a := range arenas {
			if err == nil {
				err = st.Save(key(i), a)
			}
		}
	}).Seconds()
	if err != nil {
		return err
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	d.saveBytes += float64(bytes)

	srcs, err := g.build()
	if err != nil {
		return err
	}
	ld := store.New(dir)
	defer ld.Close()
	var missing int
	d.loadS += e.tr.timed("store.Load", parent, func(spanID) {
		for i := range arenas {
			a := ld.Load(key(i), srcs[i])
			if a == nil {
				missing++
				continue
			}
			d.loadRefs += float64(a.Refs())
		}
	}).Seconds()
	stats := ld.Stats()
	d.corrupt += float64(stats.Corrupt)
	e.ops.record(e.log, "store round trip "+g.label, "", storeErr(missing, stats))
	return nil
}

func storeErr(missing int, st store.Stats) error {
	if missing > 0 || st.Corrupt > 0 {
		return fmt.Errorf("%d arenas failed to load (%d corrupt)", missing, st.Corrupt)
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// burstDrill runs refs references of src through Cache.ReadBurst on a
// fresh cache, filling it on every miss, and returns the missed blocks and
// the host time spent in the kernel and the fills (stream decoding is not
// timed).
func burstDrill(cfg cachesim.Config, src trace.Generator, refs int) ([]uint64, float64) {
	l1 := cachesim.New(cfg)
	shift := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	chunk := make([]trace.Ref, batchRefs)
	var misses []uint64
	var instr uint64
	var clock float64
	var elapsed time.Duration
	for n := 0; n < refs; n += len(chunk) {
		src.NextBatch(chunk)
		bt := trace.Batch{Refs: chunk}
		t0 := time.Now()
	burst:
		for {
			ev, i, c, _, block, way, _ := l1.ReadBurst(&bt, shift, 1, math.MaxUint64, math.Inf(1), instr, clock)
			instr, clock = i, c
			switch ev {
			case cachesim.BurstBatchEnd:
				break burst
			case cachesim.BurstMiss:
				l1.Insert(block, cachesim.InsertMRU, cachesim.Line{State: cachesim.Exclusive})
				misses = append(misses, block)
			case cachesim.BurstUpgrade:
				l1.Line(l1.SetIndex(block), way).State = cachesim.Modified
			}
		}
		elapsed += time.Since(t0)
	}
	return misses, elapsed.Seconds()
}

// interleave visits the streams' blocks round robin, as concurrently
// running cores would issue them.
func interleave(streams [][]uint64, f func(c int, b uint64)) {
	for i := 0; ; i++ {
		more := false
		for c, s := range streams {
			if i < len(s) {
				f(c, s[i])
				more = true
			}
		}
		if !more {
			return
		}
	}
}

func roundUp(n, m int) int {
	if n < m {
		return m
	}
	return (n + m - 1) / m * m
}
