// Command perfbench is the repository benchmark: it runs one named workload
// of the simulator in this process, measures it end to end, checks that the
// simulator's outputs are still correct, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload mix4-full --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (BENCHMARK.json
// "end_to_end"); with --trace 1 a separate traced pass records spans around
// the benchmark's own calls into each module and reports the per-layer
// ledger (BENCHMARK.json "per_layer") instead. The spans, the run manifest
// and the per-operation checks are written to
// .bench_build/perfbench/<workload>-seed<n>-trace<t>.json under the
// working directory, which must be the repository root.
//
// The simulator is a batch program, so every workload is one closed batch
// job whose work is fixed by the configuration and the seed. A timed phase
// repeats that job while the next repetition still fits in --seconds (at
// least once) and reports medians over the repetitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// outDir is where per-run artefacts (stores, trace files) live, relative to
// the repository root. It is ignored by git.
const outDir = ".bench_build/perfbench"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (golden output digests apply at seed 1 only)")
	fs.Float64Var(&o.seconds, "seconds", 30, "time budget of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seed == 0 {
		return o, errors.New("-seed must be positive")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive (got %g)", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1 (got %d)", o.trace)
	}
	return o, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	w, _ := workloadByName(o.workload)

	// At most nproc simulations in flight, and GOMAXPROCS no higher.
	slots := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < slots {
		slots = g
	}
	runtime.GOMAXPROCS(slots)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, fmt.Sprintf("run-%s-", o.workload))
	if err != nil {
		return fmt.Errorf("creating the work directory: %w", err)
	}
	defer os.RemoveAll(work)

	e := &env{seed: o.seed, seconds: o.seconds, slots: slots, work: work, log: stderr}
	rec := record{
		Workload: o.workload,
		Seed:     o.seed,
		Trace:    o.trace,
		Seconds:  o.seconds,
		Manifest: newManifest(slots, work, w.config(e)),
	}
	var metrics map[string]float64
	if o.trace == 1 {
		e.tr = newTracer()
		metrics, err = tracedRun(e, w, &rec)
	} else {
		metrics, err = timedRun(e, w, &rec)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	wanted := endToEnd
	if o.trace == 1 {
		wanted = perLayer
	}
	values := map[string]metricValue{}
	for _, m := range wanted {
		v, ok := metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A failed operation upstream left nothing to measure; JSON
			// has no encoding for it, so report 0 and count the failure.
			e.ops.record(stderr, "metric "+m.Name, "", fmt.Errorf("value %v", v))
			v = 0
		}
		values[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	rec.Ops = e.ops.entries
	if err := writeRecord(o, rec); err != nil {
		return err
	}

	res := result{
		Attempted: e.ops.attempted,
		Failed:    e.ops.failed,
		Metrics:   values,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	summary, err := json.Marshal(struct {
		Record record `json:"record"`
	}{recordSummary(rec)})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", summary, line)
	return nil
}

// writeRecord writes the full run record, spans included, for later
// inspection.
func writeRecord(o options, rec record) error {
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace))
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing the run record: %w", err)
	}
	return nil
}
