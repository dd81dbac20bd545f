package harness

import (
	"runtime"
	"sync"

	"ascc/internal/trace"
)

// Pool bounds how many cache simulations execute at once. Runners acquire a
// worker slot around each simulation, so any number of goroutines may issue
// runs concurrently while at most Size of them occupy the machine. A pool
// also acts as a registry of shared Runners: experiments that attach the
// same pool to their Config (see Config.WithPool and Config.EnsurePool)
// reuse one memoised Runner per distinct configuration, deduplicating the
// alone-CPI and baseline simulations the whole suite normalises against.
//
// Results are bit-identical at every pool size: each simulation is a pure
// function of (Config, workload, policy, seed), and every aggregation in
// internal/experiments collects by index, never by completion order.
type Pool struct {
	sem chan struct{}

	mu      sync.Mutex
	runners map[Config]*Runner
	// arenas is the pool-wide packed reference-stream cache (created by
	// the first runner attached to the pool): arena keys carry seed and
	// scale, so runners with different machine configurations — an L2-size
	// sweep, a prefetcher study — still share the one generation pass per
	// workload stream. It has its own lock because runner construction
	// (which attaches the cache) can itself run under mu.
	arenaMu sync.Mutex
	arenas  *trace.ArenaCache
}

// NewPool builds a pool with n worker slots; n <= 0 uses runtime.NumCPU().
// A pool of size 1 recovers fully sequential execution.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	return &Pool{sem: make(chan struct{}, n), runners: map[Config]*Runner{}}
}

// Size returns the worker bound.
func (p *Pool) Size() int { return cap(p.sem) }

// run executes f while holding a worker slot.
func (p *Pool) run(f func()) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	f()
}

// arenaCache returns the pool's shared packed-stream cache, creating it
// with the given budget on first use. Later callers with a more permissive
// budget raise the shared one (never shrink it): a runner configured for a
// larger trace cache must not be silently capped to whatever the pool's
// first runner asked for, which would evict arenas that concurrent runs
// are still extending and re-pay their generation passes.
func (p *Pool) arenaCache(maxBytes int64) *trace.ArenaCache {
	p.arenaMu.Lock()
	defer p.arenaMu.Unlock()
	if p.arenas == nil {
		p.arenas = trace.NewArenaCache(maxBytes)
	} else {
		p.arenas.Raise(maxBytes)
	}
	return p.arenas
}

// Runner returns the pool's shared runner for cfg, creating it on first
// use. Two callers with identical configurations receive the same Runner
// and therefore share its memoised simulations.
func (p *Pool) Runner(cfg Config) *Runner {
	cfg.pool = p
	p.mu.Lock()
	defer p.mu.Unlock()
	if r, ok := p.runners[cfg]; ok {
		return r
	}
	r := newRunner(cfg, p)
	p.runners[cfg] = r
	return r
}

// SharedRunner resolves cfg to its pool-shared Runner when cfg carries a
// pool, and to a fresh private Runner otherwise. The experiment runners use
// it so that a plain Config keeps the old one-Runner-per-experiment
// behaviour while a pooled Config (experiments.All, asccbench -exp all)
// shares baselines suite-wide.
func SharedRunner(cfg Config) *Runner {
	if cfg.pool != nil {
		return cfg.pool.Runner(cfg)
	}
	return NewRunner(cfg)
}

// ForEach runs f(0), ..., f(n-1) on their own goroutines and waits for all
// of them. It returns the lowest-index error, so the reported failure does
// not depend on goroutine scheduling. Simulation concurrency is bounded by
// the Runner's pool, not by ForEach — callers may fan out entire sweeps.
func ForEach(n int, f func(i int) error) error {
	if n == 1 {
		return f(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
