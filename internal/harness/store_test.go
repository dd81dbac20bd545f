package harness

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ascc/internal/trace/store"
)

// storeConfig is arenaConfig rooted at a per-test persistent arena store.
func storeConfig(t *testing.T) Config {
	t.Helper()
	cfg := arenaConfig()
	cfg.ArenaStoreDir = t.TempDir()
	return cfg
}

// storeStats digs the runner's persistent tier out for assertions.
func storeStats(t *testing.T, r *Runner) store.Stats {
	t.Helper()
	s, ok := r.arenas.Store().(*store.Store)
	if !ok {
		t.Fatalf("runner store is %T, want *store.Store", r.arenas.Store())
	}
	return s.Stats()
}

// TestRunnerStoreRoundTrip pins the cross-process contract at the harness
// level: one runner simulates and flushes, a second runner (fresh pool,
// same store directory — a "new process") replays every stream from the
// store and reproduces bit-identical results.
func TestRunnerStoreRoundTrip(t *testing.T) {
	cfg := storeConfig(t)
	mix := []int{445, 456}

	r1 := NewRunner(cfg)
	cold, err := r1.RunMix(mix, PAVGCC)
	if err != nil {
		t.Fatal(err)
	}
	if st := storeStats(t, r1); st.Loads != 0 || st.Misses == 0 {
		t.Fatalf("cold run stats %+v, want misses and no loads", st)
	}
	if err := r1.FlushArenas(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(cfg.ArenaStoreDir)
	if err != nil || len(ents) != 2 {
		t.Fatalf("store holds %d files after a 2-core flush (err %v), want 2", len(ents), err)
	}

	r2 := NewRunner(cfg)
	warm, err := r2.RunMix(mix, PAVGCC)
	if err != nil {
		t.Fatal(err)
	}
	if st := storeStats(t, r2); st.Loads != 2 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("warm run stats %+v, want exactly 2 loads", st)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-store run diverged from cold run")
	}

	// A re-flush with nothing grown must not rewrite files.
	if err := r2.FlushArenas(); err != nil {
		t.Fatal(err)
	}
	if st := storeStats(t, r2); st.Saves != 0 {
		t.Fatalf("idle flush saved %d files", st.Saves)
	}
}

// TestPrewarmCoversSuiteStreams is the prewarm contract: after
// PrewarmArenas, a fresh runner can execute every run shape the
// experiment suite uses — mixes, alone baselines, the way-sweep singles,
// multithreaded workloads — without a single store miss, i.e. the
// enumeration agrees key-for-key with replayGens.
func TestPrewarmCoversSuiteStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("prewarm synthesises the full stream set")
	}
	cfg := storeConfig(t)
	n, err := NewRunner(cfg).PrewarmArenas()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("prewarm warmed no streams")
	}
	ents, err := os.ReadDir(cfg.ArenaStoreDir)
	if err != nil || len(ents) != n {
		t.Fatalf("store holds %d files after prewarming %d streams (err %v)", len(ents), n, err)
	}

	r := NewRunner(cfg)
	if _, err := r.RunMix([]int{445, 456}, PASCC); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AloneCPIs([]int{433, 471, 473, 482}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RunSingle(429, r.Cfg.Params(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunMT("ocean", 4, PBaseline); err != nil {
		t.Fatal(err)
	}
	if st := storeStats(t, r); st.Misses != 0 || st.Corrupt != 0 || st.Loads == 0 {
		t.Fatalf("post-prewarm stats %+v, want loads only", st)
	}
}

// TestPrewarmPreconditions: prewarming is meaningless without the store it
// fills into, so it fails without one and when the store cannot be written
// (a regular file as the root: a read-only directory does not stop root).
func TestPrewarmPreconditions(t *testing.T) {
	noStore := arenaConfig()
	if _, err := NewRunner(noStore).PrewarmArenas(); err == nil {
		t.Fatal("prewarm without a store did not fail")
	}
	fileRoot := arenaConfig()
	fileRoot.ArenaStoreDir = filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(fileRoot.ArenaStoreDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(fileRoot).PrewarmArenas(); err == nil {
		t.Fatal("prewarm into an unwritable store did not fail")
	}
}

// TestPrewarmSweepsStaleTemps: prewarming removes the temp file a killed
// writer left in the store root long ago, and keeps one a live writer in
// another process may still be writing.
func TestPrewarmSweepsStaleTemps(t *testing.T) {
	cfg := storeConfig(t)
	stale := filepath.Join(cfg.ArenaStoreDir, ".arena-killed.tmp")
	fresh := filepath.Join(cfg.ArenaStoreDir, ".arena-writing.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(cfg).PrewarmArenas(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stale temp file survived prewarm (stat err %v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("prewarm removed a fresh temp file: %v", err)
	}
}

// TestPoolSharesOneStore: runners of different configurations on one pool
// share the pool cache and therefore one store — the first directory
// wins, mirroring the cache-budget union semantics.
func TestPoolSharesOneStore(t *testing.T) {
	pool := NewPool(2)
	cfgA := storeConfig(t)
	cfgB := storeConfig(t) // different directory: must be ignored
	rA := pool.Runner(cfgA.WithPool(pool))
	rB := pool.Runner(cfgB.WithPool(pool))
	sA, okA := rA.arenas.Store().(*store.Store)
	sB, okB := rB.arenas.Store().(*store.Store)
	if !okA || !okB || sA != sB {
		t.Fatal("pooled runners did not share one store")
	}
	if sA.Dir() != cfgA.ArenaStoreDir {
		t.Fatalf("shared store rooted at %q, want first runner's %q", sA.Dir(), cfgA.ArenaStoreDir)
	}

	// Pool-level flush persists what pooled runners grew.
	if _, err := rA.RunMix([]int{445, 456}, PBaseline); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushArenas(); err != nil {
		t.Fatal(err)
	}
	if st := sA.Stats(); st.Saves != 2 {
		t.Fatalf("pool flush saved %d files, want 2", st.Saves)
	}
}
