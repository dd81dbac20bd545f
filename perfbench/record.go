package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"ascc/internal/harness"
)

// env is the state one benchmark run threads through its phases.
type env struct {
	seed    uint64
	seconds float64
	slots   int    // simulations in flight: nproc, capped by GOMAXPROCS
	work    string // per-run scratch directory (stores), removed at exit
	log     io.Writer

	ops ledger
	out *outputCheck
	tr  *tracer // nil outside the traced pass
}

// record is everything one run reports besides the metrics: the manifest
// that says what ran where, the phase timings, every checked operation and
// (traced runs) the spans.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    int                `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Manifest manifest           `json:"manifest"`
	SetupS   []float64          `json:"setup_s"`
	WallS    []float64          `json:"wall_s"`
	CPUS     []float64          `json:"cpu_s"`
	Details  map[string]float64 `json:"details,omitempty"`
	Outputs  map[string]string  `json:"outputs"`
	Ops      []opEntry          `json:"ops,omitempty"`
	Layers   []layerSelf        `json:"layers,omitempty"`
	Spans    []spanOut          `json:"spans,omitempty"`
}

// recordSummary is the record as printed on standard output: the failed
// operations only, no spans.
func recordSummary(r record) record {
	var failed []opEntry
	for _, op := range r.Ops {
		if op.Error != "" {
			failed = append(failed, op)
		}
	}
	r.Ops = failed
	r.Spans = nil
	return r
}

// manifest identifies the code, the host and the configuration of a run.
type manifest struct {
	Commit       string       `json:"commit"`
	SourceSHA256 string       `json:"source_sha256"`
	NProc        int          `json:"nproc"`
	GOMAXPROCS   int          `json:"gomaxprocs"`
	GoVersion    string       `json:"go_version"`
	GOOS         string       `json:"goos"`
	GOARCH       string       `json:"goarch"`
	StoreFS      string       `json:"store_fs"`
	Config       configRecord `json:"config"`
	Model        string       `json:"model"`
}

type configRecord struct {
	Scale        int    `json:"scale"`
	WarmupInstr  uint64 `json:"warmup_instr"`
	MeasureInstr uint64 `json:"measure_instr"`
	SampleDen    int    `json:"sample_den"`
	Parallel     int    `json:"parallel"`
	Seed         uint64 `json:"seed"`
}

func newManifest(slots int, storeDir string, cfg harness.Config) manifest {
	return manifest{
		Commit:       commit(),
		SourceSHA256: sourceDigest("."),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		StoreFS:      fsType(storeDir),
		Config: configRecord{
			Scale:        cfg.Scale,
			WarmupInstr:  cfg.WarmupInstr,
			MeasureInstr: cfg.MeasureInstr,
			SampleDen:    cfg.SampleDen,
			Parallel:     slots,
			Seed:         cfg.Seed,
		},
		Model: "simulated statistics are unvalidated against real hardware; no reference measurements exist",
	}
}

// commit is the VCS revision stamped into the binary, "unknown" when it
// was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root (build
// outputs and VCS metadata excluded), so a run identifies the code it
// measured even in a checkout that carries no VCS metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
