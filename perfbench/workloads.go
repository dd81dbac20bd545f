package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"ascc/internal/cmp"
	"ascc/internal/experiments"
	"ascc/internal/harness"
	"ascc/internal/workload"
)

// workloadDef is one named batch job.
type workloadDef struct {
	name string
	why  string
	// config is the configuration of the timed phase.
	config func(e *env) harness.Config
	// setup builds one fresh instance; the timed phase repeats the job on
	// the last of several.
	setup func(e *env, parent spanID) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// iterate runs the batch job once. Output checks happen in check, off
	// the clock.
	iterate(e *env, tr *tracer, parent spanID) iteration
	check(e *env, it iteration)
	// layers runs the traced pass's simulated-count runs after a traced
	// iteration it.
	layers(e *env, it iteration, parent spanID) (layerRuns, error)
	// drills are the streams the isolated layer drills run on.
	drills() []streamGroup
	close()
}

// iteration is what one repetition produced.
type iteration struct {
	err     error
	results cmp.Results // mix4-full
	sys     *cmp.System // mix4-full: the simulated machine, for its probe count
	runSpan spanID      // mix4-full: the System.Run span
	tables  []experiments.Result
	sims    uint64 // simulations the job executed on its main runner
	pool    *harness.Pool
	cfg     harness.Config // the pool-carrying configuration the job ran on
}

var workloads = []workloadDef{
	{
		name:   mix4Full,
		why:    "one 4-core AVGCC mix at full fidelity: L1 burst kernel, L2 descent, policy hooks and arena replay",
		config: mix4Config,
		setup:  setupMix4,
	},
	{
		name:   suiteSampled,
		why:    "every experiment at 1/8 set sampling over a prewarmed store: harness memo and pool, store load, sample filter",
		config: suiteConfig,
		setup: func(e *env, parent spanID) (instance, error) {
			return setupStored(e, suiteSampled, suiteConfig(e), parent)
		},
	},
	{
		name:   wideShared,
		why:    "the mt and scaleout experiments at full fidelity: shared data, directory probes and spills at 4 to 64 cores",
		config: wideConfig,
		setup: func(e *env, parent spanID) (instance, error) {
			return setupStored(e, wideShared, wideConfig(e), parent)
		},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mix4 is the first four-application mix of Table 1 (445+401+444+456), the
// ROADMAP's single-run throughput mix and the mix the scaleout experiment
// widens.
var mix4 = workload.FourAppMixes()[0]

// mixBudgetScale stretches mix4-full's instruction budgets so one run
// takes about a second instead of a tenth, long enough to time steadily.
const mixBudgetScale = 4

func baseConfig(e *env) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Seed = e.seed
	cfg.Parallel = e.slots
	return cfg
}

func mix4Config(e *env) harness.Config {
	cfg := baseConfig(e)
	cfg.WarmupInstr *= mixBudgetScale
	cfg.MeasureInstr *= mixBudgetScale
	return cfg
}

// sampleDen is suite-sampled's set sample, the ROADMAP's sampled suite;
// the other workloads' accuracy checks and filter drills use it too.
const sampleDen = 8

func suiteConfig(e *env) harness.Config { return withSample(baseConfig(e), sampleDen) }

func wideConfig(e *env) harness.Config { return baseConfig(e) }

// ---- mix4-full ----

type mix4Instance struct {
	cfg  harness.Config
	pool *harness.Pool
	r    *harness.Runner
}

// setupMix4 builds the runner, synthesises and packs the four streams, and
// runs the untimed warm-up simulation that leaves the arena cache warm.
func setupMix4(e *env, parent spanID) (instance, error) {
	cfg := mix4Config(e)
	pool := harness.NewPool(e.slots)
	var r *harness.Runner
	e.tr.timed("harness.NewRunner", parent, func(spanID) { r = pool.Runner(cfg) })
	var sys *cmp.System
	var err error
	e.tr.timed("harness.NewMixSystem", parent, func(spanID) { sys, err = r.NewMixSystem(mix4, harness.PAVGCC) })
	if err != nil {
		return nil, fmt.Errorf("building the mix: %w", err)
	}
	var res cmp.Results
	e.tr.timed("cmp.Run", parent, func(spanID) { res = sys.Run(cfg.WarmupInstr, cfg.MeasureInstr) })
	e.checkResults("warm-up run "+workload.MixName(mix4), mix4Output, res)
	return &mix4Instance{cfg: cfg, pool: pool, r: r}, nil
}

func (m *mix4Instance) iterate(e *env, tr *tracer, parent spanID) iteration {
	var it iteration
	tr.timed("harness.NewMixSystem", parent, func(spanID) { it.sys, it.err = m.r.NewMixSystem(mix4, harness.PAVGCC) })
	if it.err != nil {
		return it
	}
	start := tr.begin("cmp.Run", parent)
	it.results = it.sys.Run(m.cfg.WarmupInstr, m.cfg.MeasureInstr)
	tr.end(start)
	it.runSpan = start
	return it
}

// mix4Output names mix4-full's AVGCC results among the checked outputs.
var mix4Output = "results/" + workload.MixName(mix4) + "/" + string(harness.PAVGCC)

func (m *mix4Instance) check(e *env, it iteration) {
	if it.err != nil {
		e.ops.record(e.log, "run "+workload.MixName(mix4), "", it.err)
		return
	}
	e.checkResults("run "+workload.MixName(mix4), mix4Output, it.results)
}

func (m *mix4Instance) close() {}

// ---- suite-sampled and wide-shared ----

// storedInstance is a workload whose jobs run on a fresh harness pool over
// a persistent arena store that set-up prewarmed, as `make prewarm`
// followed by asccbench invocations would.
type storedInstance struct {
	name  string
	cfg   harness.Config
	dir   string
	files map[string]bool // the store as set-up left it
}

// setupStored prewarms a fresh store with every full-fidelity stream arena
// the experiment suite draws on.
func setupStored(e *env, name string, cfg harness.Config, parent spanID) (instance, error) {
	dir, err := os.MkdirTemp(e.work, "store-")
	if err != nil {
		return nil, err
	}
	cfg.ArenaStoreDir = dir
	pre := cfg
	pre.SampleDen = 0 // sampled sub-arenas are derived from these on first use
	var n int
	e.tr.timed("harness.PrewarmArenas", parent, func(spanID) { n, err = harness.NewRunner(pre).PrewarmArenas() })
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("prewarming the arena store: %w", err)
	}
	if n == 0 {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("prewarm wrote no arenas")
	}
	in := &storedInstance{name: name, cfg: cfg, dir: dir}
	in.files, err = listFiles(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return in, nil
}

func listFiles(dir string) (map[string]bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("listing the arena store: %w", err)
	}
	m := map[string]bool{}
	for _, e := range ents {
		m[e.Name()] = true
	}
	return m, nil
}

// restore deletes whatever a job wrote behind into the store (arenas the
// cache evicted), so every repetition starts from the store set-up left.
func (s *storedInstance) restore() error {
	now, err := listFiles(s.dir)
	if err != nil {
		return err
	}
	for f := range now {
		if !s.files[f] {
			if err := os.Remove(filepath.Join(s.dir, f)); err != nil {
				return fmt.Errorf("restoring the arena store: %w", err)
			}
		}
	}
	return nil
}

// experimentIDs are the experiments the workload runs, in paper order.
func (s *storedInstance) experimentIDs() []string {
	if s.name == wideShared {
		return []string{"mt", "scaleout"}
	}
	return experiments.IDs()
}

func (s *storedInstance) iterate(e *env, tr *tracer, parent spanID) iteration {
	it := iteration{pool: harness.NewPool(e.slots)}
	it.cfg = s.cfg.WithPool(it.pool)
	ids := s.experimentIDs()
	switch {
	case s.name == suiteSampled && tr == nil:
		it.tables, it.err = experiments.All(it.cfg)
	case s.name == suiteSampled:
		// The traced pass issues the same experiments on the same shared
		// pool as experiments.All does, one span per experiment.
		it.tables = make([]experiments.Result, len(ids))
		it.err = harness.ForEach(len(ids), func(i int) error {
			var err error
			tr.timed("experiments."+ids[i], parent, func(spanID) { it.tables[i], err = experiments.ByID(it.cfg, ids[i]) })
			return err
		})
	default:
		for _, id := range ids {
			var res experiments.Result
			tr.timed("experiments."+id, parent, func(spanID) { res, it.err = experiments.ByID(it.cfg, id) })
			if it.err != nil {
				break
			}
			it.tables = append(it.tables, res)
		}
	}
	if s.name == wideShared {
		it.sims = it.pool.Runner(mtConfig(it.cfg)).Simulations()
	} else {
		it.sims = it.pool.Runner(it.cfg).Simulations()
	}
	return it
}

func (s *storedInstance) check(e *env, it iteration) {
	defer func() {
		if err := s.restore(); err != nil {
			e.ops.record(e.log, "arena store restore", "", err)
		}
	}()
	if it.err != nil {
		e.ops.record(e.log, "experiments", "", it.err)
		return
	}
	ids := s.experimentIDs()
	if len(it.tables) != len(ids) {
		e.ops.record(e.log, "experiments", "", fmt.Errorf("%d tables for %d experiments", len(it.tables), len(ids)))
		return
	}
	for i, res := range it.tables {
		if res.ID != ids[i] {
			e.ops.record(e.log, "table "+ids[i], "", fmt.Errorf("table %d is %q, want %q", i, res.ID, ids[i]))
			continue
		}
		e.checkTable(res.ID, res.Table)
	}
	if s.name == suiteSampled {
		e.ops.record(e.log, "sampling accuracy", "", checkSampleErr(suiteCPIErr(it.tables)))
	}
	// Conservation on the simulations the job ran: these Results come
	// straight from the pool's memo.
	for _, rr := range s.memoResults(it) {
		if rr.err != nil {
			e.ops.record(e.log, "results "+rr.name, "", rr.err)
			continue
		}
		e.checkResults("results "+rr.name, "results/"+rr.name, rr.res)
	}
}

// maxSampleErrPct bounds the 1/8 mean aggregate-CPI error. DESIGN §16
// measured ~2% (4.75% worst single run); an error this large means the
// sampled fast path broke, not that a seed was unlucky.
const maxSampleErrPct = 10

func checkSampleErr(pct float64) error {
	if math.IsNaN(pct) || pct <= 0 || pct > maxSampleErrPct {
		return fmt.Errorf("1/8 mean CPI error %.3f%% outside (0, %d%%]", pct, maxSampleErrPct)
	}
	return nil
}

// suiteCPIErr is the sampling table's 1/8 "CPI err% mean", averaged over
// DSR and AVGCC.
func suiteCPIErr(tables []experiments.Result) float64 {
	for _, t := range tables {
		if t.ID == "sampling" {
			return (t.Values["cpierr/1/8/DSR"] + t.Values["cpierr/1/8/AVGCC"]) / 2
		}
	}
	return math.NaN()
}

type namedResults struct {
	name string
	res  cmp.Results
	err  error
}

// memoResults fetches Results of simulations the job ran from the pool's
// memoised runners: the four- and two-application mixes under the
// baseline and AVGCC (suite-sampled), every multithreaded workload under
// the baseline and AVGCC (wide-shared). A request the job did not run is
// simulated here, off the clock.
func (s *storedInstance) memoResults(it iteration) []namedResults {
	var out []namedResults
	pols := []harness.PolicyID{harness.PBaseline, harness.PAVGCC}
	if s.name == wideShared {
		r := it.pool.Runner(mtConfig(it.cfg))
		for _, p := range workload.MTProfiles() {
			for _, pol := range pols {
				res, err := r.RunMT(p.Name, 4, pol)
				out = append(out, namedResults{name: "mt/" + p.Name + "/" + string(pol), res: res, err: err})
			}
		}
		return out
	}
	r := it.pool.Runner(it.cfg)
	mixes := append(workload.FourAppMixes(), workload.TwoAppMixes()...)
	for _, mix := range mixes {
		for _, pol := range pols {
			res, err := r.RunMix(mix, pol)
			out = append(out, namedResults{name: workload.MixName(mix) + "/" + string(pol), res: res, err: err})
		}
	}
	return out
}

// mtConfig is the configuration the mt experiment derives for its runs
// (the §6.3 512 kB LLC), so the pool hands back the same memoised runner.
func mtConfig(cfg harness.Config) harness.Config {
	cfg.L2SizeBytes = 512 * 1024
	return cfg
}

func (s *storedInstance) close() { os.RemoveAll(s.dir) }

// ---- shared helpers ----

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
