package harness

import (
	"testing"

	"ascc/internal/cmp"
	"ascc/internal/workload"
)

// arenaConfig is tinyConfig with the budgets trimmed further: the arena
// tests assert sharing structure, not simulation fidelity.
func arenaConfig() Config {
	cfg := tinyConfig()
	cfg.WarmupInstr = 40_000
	cfg.MeasureInstr = 100_000
	return cfg
}

// TestArenaSharedAcrossPoliciesAndMixes pins the tentpole sharing claims:
// one generation pass per (benchmark, core) stream feeds every policy run
// of a mix, the single-app baselines of AloneCPI, and other mixes placing
// the same benchmark at the same core.
func TestArenaSharedAcrossPoliciesAndMixes(t *testing.T) {
	r := NewRunner(arenaConfig())
	mix := []int{445, 456}
	for _, id := range []PolicyID{PBaseline, PDSR, PASCC, PAVGCC} {
		if _, err := r.RunMix(mix, id); err != nil {
			t.Fatal(err)
		}
	}
	// 4 policies over a 2-core mix: exactly one arena per core stream.
	if got := r.arenas.Len(); got != 2 {
		t.Fatalf("%d arenas after 4 policy runs of one mix, want 2", got)
	}
	// The single-app "alone" run of 445 is the mix stream for core 0.
	if _, err := r.AloneCPI(445); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 2 {
		t.Fatalf("%d arenas after AloneCPI(445), want 2 (stream shared)", got)
	}
	// A different mix reusing 445 at core 0 shares its arena; 471 at
	// core 1 is a new stream.
	if _, err := r.RunMix([]int{445, 471}, PBaseline); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 3 {
		t.Fatalf("%d arenas after second mix, want 3", got)
	}
	// The same benchmark at a different core is a different stream (its
	// seed and address base derive from the core index).
	if _, err := r.RunMix([]int{456, 445}, PBaseline); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 5 {
		t.Fatalf("%d arenas after swapped mix, want 5", got)
	}
}

// TestArenaReplayBitIdentical compares RunMix's arena replay against a
// live arm for representative mixes and policies: the replayed stream must
// reproduce every statistic of live generation exactly, at full fidelity
// and under a 1/8 set sample.
func TestArenaReplayBitIdentical(t *testing.T) {
	cases := []struct {
		mix []int
		den int
	}{
		{[]int{445, 456}, 0},
		{[]int{433, 471, 473, 482}, 0},
		{[]int{445, 456}, 8},
	}
	for _, tc := range cases {
		cfg := arenaConfig()
		cfg.SampleDen = tc.den
		for _, id := range []PolicyID{PBaseline, PAVGCC} {
			replay, err := NewRunner(cfg).RunMix(tc.mix, id)
			if err != nil {
				t.Fatal(err)
			}
			live := liveMixRun(t, cfg, tc.mix, id)
			for c := range replay.Cores {
				if replay.Cores[c] != live.Cores[c] {
					t.Fatalf("mix %v 1/%d policy %s core %d: replay %+v != live %+v",
						tc.mix, tc.den, id, c, replay.Cores[c], live.Cores[c])
				}
			}
		}
	}
}

// liveMixRun simulates mix on the machine RunMix builds for cfg, but feeds
// it the workload generators directly — synthesised as the run consumes
// them, with no arena in between. Under a set sample each stream is
// wrapped in the sample spec's View, the filter the arena layer caches.
func liveMixRun(t *testing.T, cfg Config, mix []int, id PolicyID) cmp.Results {
	t.Helper()
	gens, profs, err := workload.BuildMix(mix, cfg.Seed, cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.params(len(mix))
	spec, err := p.SampleSpec()
	if err != nil {
		t.Fatal(err)
	}
	timing := make([]cmp.CoreTiming, len(mix))
	for i, prof := range profs {
		if spec != nil {
			gens[i] = spec.View(gens[i])
		}
		timing[i] = cmp.CoreTiming{BaseCPI: prof.BaseCPI, Overlap: prof.Overlap}
	}
	sets, ways := cfg.L2Geometry()
	pol, err := NewPolicy(id, len(mix), sets, ways, cfg.Seed, cfg.ResizePeriod())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cmp.New(p, gens, timing, pol)
	if err != nil {
		t.Fatal(err)
	}
	return sys.ScaleSampled(sys.Run(cfg.WarmupInstr, cfg.MeasureInstr))
}

// TestArenaSharedAcrossConfigsOnOnePool checks the pool-level cache: two
// runners differing only in machine geometry (an L2-size override) share
// the workload arenas, because streams depend only on (workload, seed,
// scale).
func TestArenaSharedAcrossConfigsOnOnePool(t *testing.T) {
	p := NewPool(1)
	cfgA := arenaConfig().WithPool(p)
	cfgB := cfgA
	cfgB.L2SizeBytes = 512 * 1024
	ra := SharedRunner(cfgA)
	rb := SharedRunner(cfgB)
	if ra == rb {
		t.Fatal("distinct configs resolved to one runner")
	}
	if ra.arenas != rb.arenas {
		t.Fatal("pool-attached runners did not share the arena cache")
	}
	if _, err := ra.RunMix([]int{445, 456}, PBaseline); err != nil {
		t.Fatal(err)
	}
	n := ra.arenas.Len()
	if _, err := rb.RunMix([]int{445, 456}, PBaseline); err != nil {
		t.Fatal(err)
	}
	if got := rb.arenas.Len(); got != n {
		t.Fatalf("L2-size override regenerated streams: %d arenas, want %d", got, n)
	}
}

// TestArenaBudgetUnionAcrossRunners is the regression for the pool budget
// gap: the first runner's TraceCacheMB used to fix the shared cache's
// budget forever, silently capping any later runner that asked for more.
// The pool must reconcile to the most permissive budget, in either
// attachment order.
func TestArenaBudgetUnionAcrossRunners(t *testing.T) {
	mk := func(mbFirst, mbSecond int) int64 {
		p := NewPool(1)
		cfgA := arenaConfig().WithPool(p)
		cfgA.TraceCacheMB = mbFirst
		cfgB := arenaConfig().WithPool(p)
		cfgB.TraceCacheMB = mbSecond
		ra, rb := SharedRunner(cfgA), SharedRunner(cfgB)
		if ra.arenas != rb.arenas {
			t.Fatal("pool-attached runners did not share the arena cache")
		}
		return ra.arenas.MaxBytes()
	}
	const mi = int64(1 << 20)
	if got := mk(1, 512); got != 512*mi {
		t.Fatalf("small-then-large: budget %d, want %d", got, 512*mi)
	}
	if got := mk(512, 1); got != 512*mi {
		t.Fatalf("large-then-small: budget %d, want %d", got, 512*mi)
	}
	// TraceCacheMB = 0 resolves to the default, which participates in the
	// union like any explicit bound.
	if got := mk(1, 0); got != int64(DefaultTraceCacheMB)*mi {
		t.Fatalf("small-then-default: budget %d, want %d", got, int64(DefaultTraceCacheMB)*mi)
	}
}

// TestArenaMTStreams checks the multithreaded path: per-thread streams get
// per-thread arenas keyed apart from the mix streams.
func TestArenaMTStreams(t *testing.T) {
	r := NewRunner(arenaConfig())
	if _, err := r.RunMT("ocean", 2, PBaseline); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 2 {
		t.Fatalf("%d arenas after 2-thread MT run, want 2", got)
	}
	if _, err := r.RunMT("ocean", 2, PASCC); err != nil {
		t.Fatal(err)
	}
	if got := r.arenas.Len(); got != 2 {
		t.Fatalf("%d arenas after second MT policy, want 2 (shared)", got)
	}
}

// TestArenaSingleRunsShareStream pins RunSingle sharing (the Fig. 1 way
// sweep replays one stream per benchmark across every geometry point).
func TestArenaSingleRunsShareStream(t *testing.T) {
	r := NewRunner(arenaConfig())
	for _, ways := range []int{2, 4, 8} {
		p := r.Cfg.Params(1)
		p.L2.Ways = ways
		if _, _, err := r.RunSingle(445, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.arenas.Len(); got != 1 {
		t.Fatalf("%d arenas after 3-point way sweep, want 1", got)
	}
}
