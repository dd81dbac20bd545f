package experiments

import (
	"bytes"
	"testing"
)

// shortDiffIDs is the -short subset: one multiprogrammed figure, the
// multithreaded workload path and the single-app way sweep — together they
// exercise every Runner entry point that replays arenas.
var shortDiffIDs = map[string]bool{"fig1": true, "fig8": true, "mt": true}

// TestArenaDifferential renders every experiment with the default
// packed-stream budget and with the tightest one (TraceCacheMB = 1), and
// requires byte-identical CSV output. Under the 1 MiB bound the cache
// evicts arenas mid-experiment and later runs re-synthesise them through
// Arena.Extend, so this is the end-to-end guarantee that the memory bound
// — the low-memory setting — never changes a result, for every table the
// repo produces.
func TestArenaDifferential(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !shortDiffIDs[id] {
				t.Skip("-short: representative subset only")
			}
			t.Parallel()
			render := func(traceCacheMB int) []byte {
				cfg := diffConfig()
				cfg.TraceCacheMB = traceCacheMB
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
			roomy := render(0)
			tight := render(1)
			if !bytes.Equal(roomy, tight) {
				t.Fatalf("%s: replay under a 1 MiB trace cache diverged from the default budget\n--- default ---\n%s\n--- 1 MiB ---\n%s",
					id, firstDiffWindow(roomy, tight), firstDiffWindow(tight, roomy))
			}
		})
	}
}
