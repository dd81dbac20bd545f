package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ascc/internal/trace"
	"ascc/internal/workload"
)

// writeTestTraces produces one binary and one CSV trace from the synthetic
// models.
func writeTestTraces(t *testing.T) (binPath, csvPath string) {
	t.Helper()
	dir := t.TempDir()

	gen := workload.MustByID(445).NewGenerator(1, 0, 8)
	refs := trace.Record(gen, 50000)

	binPath = filepath.Join(dir, "a.trc")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	gen2 := workload.MustByID(456).NewGenerator(2, 1<<36, 8)
	csvPath = filepath.Join(dir, "b.csv")
	f2, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f2, trace.Record(gen2, 50000)); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	return binPath, csvPath
}

func TestLoadTraceFile(t *testing.T) {
	binPath, csvPath := writeTestTraces(t)
	rp, err := LoadTraceFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != 50000 {
		t.Fatalf("binary trace has %d refs", rp.Len())
	}
	rp2, err := LoadTraceFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Len() != 50000 {
		t.Fatalf("csv trace has %d refs", rp2.Len())
	}
	if _, err := LoadTraceFile(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunTraces(t *testing.T) {
	binPath, csvPath := writeTestTraces(t)
	cfg := DefaultConfig()
	cfg.WarmupInstr = 100_000
	cfg.MeasureInstr = 300_000
	r := NewRunner(cfg)
	res, err := r.RunTraces([]TraceSpec{
		{Path: binPath, BaseCPI: 1.0, Overlap: 0.39},
		{Path: csvPath}, // defaults
	}, PAVGCC)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("cores %d", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.Instructions < cfg.MeasureInstr {
			t.Errorf("core %d under quota: %d", i, c.Instructions)
		}
	}
	if _, err := r.RunTraces(nil, PAVGCC); err == nil {
		t.Fatal("empty trace list accepted")
	}
}

// TestRunTracesRejectsSampling: external traces cannot be filtered to a set
// sample, so a sampling configuration must fail loudly instead of running
// the compact 1/N machine on unfiltered streams and reporting unscaled
// results. The prefetcher turns sampling off, so that combination runs at
// full fidelity.
func TestRunTracesRejectsSampling(t *testing.T) {
	binPath, csvPath := writeTestTraces(t)
	specs := []TraceSpec{{Path: binPath}, {Path: csvPath}}
	cfg := DefaultConfig()
	cfg.WarmupInstr = 20_000
	cfg.MeasureInstr = 50_000
	cfg.SampleDen = 8
	_, err := NewRunner(cfg).RunTraces(specs, PAVGCC)
	if err == nil || !strings.Contains(err.Error(), "does not apply to trace replays") {
		t.Fatalf("sampled trace replay: err %v, want the trace-replay rejection", err)
	}
	cfg.Prefetch = true
	if _, err := NewRunner(cfg).RunTraces(specs, PAVGCC); err != nil {
		t.Fatalf("prefetch run (sampling off): %v", err)
	}
}
