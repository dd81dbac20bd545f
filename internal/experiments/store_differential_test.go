package experiments

import (
	"bytes"
	"os"
	"testing"

	"ascc/internal/harness"
)

// diffConfig is deliberately smaller than the golden budget: the store
// differential renders every experiment three times, so it trades
// statistical weight for coverage of all IDs.
func diffConfig() harness.Config {
	cfg := tinyConfig()
	cfg.WarmupInstr = 60_000
	cfg.MeasureInstr = 150_000
	return cfg
}

// shortStoreIDs is the -short subset for the store differential: one
// multiprogrammed figure, the multithreaded path and the scaleout widths —
// together they cover every arena kind the store persists, including the
// extra-wide replicas prewarm deliberately skips.
var shortStoreIDs = map[string]bool{"fig8": true, "mt": true, "scaleout": true}

// TestStoreDifferential renders every experiment three ways — persistent
// store off, store cold (empty directory, write-behind populates it) and
// store warm (same directory, streams replayed from mmap'd files) — and
// requires byte-identical CSV output. This is the end-to-end guarantee
// behind the arena store: cross-process packed replay is indistinguishable
// from in-process replay, for every table the repo produces.
func TestStoreDifferential(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !shortStoreIDs[id] {
				t.Skip("-short: representative subset only")
			}
			t.Parallel()
			dir := t.TempDir()
			render := func(storeDir string) []byte {
				cfg := diffConfig()
				cfg.ArenaStoreDir = storeDir
				if storeDir != "" {
					// Each store-backed render gets its own pool (a "new
					// process"): the warm render must read files, not hit
					// a shared in-memory cache. The flush persists what
					// the render grew, like asccbench does on exit.
					pool := harness.NewPool(0)
					cfg = cfg.WithPool(pool)
					defer func() {
						if err := pool.FlushArenas(); err != nil {
							t.Fatal(err)
						}
					}()
				}
				res, err := ByID(cfg, id)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := res.Table.CSV(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			off := render("")
			cold := render(dir)
			// table5 is the analytic storage-cost table: it simulates
			// nothing, so its cold render legitimately persists nothing.
			if ents, err := os.ReadDir(dir); (err != nil || len(ents) == 0) && id != "table5" {
				t.Fatalf("store dir empty after cold render (err %v): write-behind persisted nothing", err)
			}
			warm := render(dir)
			if !bytes.Equal(off, cold) {
				t.Fatalf("%s: cold-store render diverged from store-off\n--- off ---\n%s\n--- cold ---\n%s",
					id, firstDiffWindow(off, cold), firstDiffWindow(cold, off))
			}
			if !bytes.Equal(off, warm) {
				t.Fatalf("%s: warm-store render diverged from store-off\n--- off ---\n%s\n--- warm ---\n%s",
					id, firstDiffWindow(off, warm), firstDiffWindow(warm, off))
			}
		})
	}
}
