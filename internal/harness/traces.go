package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ascc/internal/cmp"
	"ascc/internal/trace"
)

// TraceSpec describes one core's externally supplied trace.
type TraceSpec struct {
	Path string
	// BaseCPI and Overlap are the timing-model parameters for this trace's
	// core (see cmp.CoreTiming); zero values default to 1.0 and 0.5.
	BaseCPI float64
	Overlap float64
}

// LoadTraceFile reads a trace file (binary .trc or .csv, by extension) into
// a replayable generator.
func LoadTraceFile(path string) (*trace.Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var refs []trace.Ref
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		refs, err = trace.ReadCSV(f)
	default:
		refs, err = trace.ReadBinary(f)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return trace.NewReplay(filepath.Base(path), refs)
}

// RunTraces simulates one externally supplied trace per core under a
// registry policy, using the runner's machine configuration. The traces
// always run at full fidelity: a configuration that samples sets
// (Config.SampleDen > 1) is rejected rather than run on the compact
// machine with unfiltered streams.
func (r *Runner) RunTraces(specs []TraceSpec, id PolicyID) (cmp.Results, error) {
	if len(specs) == 0 {
		return cmp.Results{}, fmt.Errorf("harness: no traces")
	}
	j := job{
		gens:   make([]trace.Generator, len(specs)),
		timing: make([]cmp.CoreTiming, len(specs)),
		p:      r.Cfg.params(len(specs)),
		id:     id,
	}
	if j.p.SampleDen > 1 {
		return cmp.Results{}, fmt.Errorf("harness: set sampling 1/%d does not apply to trace replays (external traces are not re-synthesisable, so filtered variants would shadow the real stream)", j.p.SampleDen)
	}
	for i, spec := range specs {
		rp, err := LoadTraceFile(spec.Path)
		if err != nil {
			return cmp.Results{}, err
		}
		j.gens[i] = rp
		j.timing[i] = cmp.CoreTiming{BaseCPI: spec.BaseCPI, Overlap: spec.Overlap}
		if j.timing[i].BaseCPI <= 0 {
			j.timing[i].BaseCPI = 1.0
		}
		if j.timing[i].Overlap <= 0 {
			j.timing[i].Overlap = 0.5
		}
	}
	return r.run(r.build(j))
}
