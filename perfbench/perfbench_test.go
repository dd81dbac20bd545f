package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"ascc/internal/cmp"
	"ascc/internal/harness"
)

// smallConfig is a short-budget configuration for tests.
func smallConfig(den int) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.WarmupInstr = 50_000
	cfg.MeasureInstr = 150_000
	cfg.Parallel = 1
	cfg.SampleDen = den
	return cfg
}

func testEnv(seed uint64, golden map[string]map[string]string) *env {
	e := &env{seed: seed}
	e.out = newOutputCheck("w", seed)
	e.out.golden = golden
	return e
}

func runSmall(t *testing.T, cfg harness.Config) cmp.Results {
	t.Helper()
	res, err := harness.NewRunner(cfg).RunMix(mix4, harness.PAVGCC)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPerturbedDigestFailsOperation(t *testing.T) {
	res := runSmall(t, smallConfig(0))
	d := resultsDigest(res)

	e := testEnv(goldenSeed, map[string]map[string]string{"w": {"r": d}})
	e.checkResults("matching", "r", res)
	if e.ops.attempted != 1 || e.ops.failed != 0 {
		t.Fatalf("matching digest: attempted %d failed %d, want 1 0", e.ops.attempted, e.ops.failed)
	}

	e = testEnv(goldenSeed, map[string]map[string]string{"w": {"r": "0123456789abcdef"}})
	e.checkResults("perturbed golden", "r", res)
	e.checkResults("missing golden", "other", res)
	if e.ops.attempted != 2 || e.ops.failed != 2 {
		t.Fatalf("perturbed/missing golden: attempted %d failed %d, want 2 2", e.ops.attempted, e.ops.failed)
	}

	// Away from the golden seed, a changed output within the run still
	// fails.
	e = testEnv(goldenSeed+1, nil)
	e.checkResults("first", "r", res)
	changed := res
	changed.Cores = append([]cmp.CoreStats(nil), res.Cores...)
	changed.Cores[0].Cycles++
	e.checkResults("changed", "r", changed)
	if e.ops.attempted != 2 || e.ops.failed != 1 {
		t.Fatalf("changed output: attempted %d failed %d, want 2 1", e.ops.attempted, e.ops.failed)
	}
}

func TestBrokenConservationFailsOperation(t *testing.T) {
	for _, den := range []int{0, 8} {
		res := runSmall(t, smallConfig(den))
		if err := conservation(res); err != nil {
			t.Fatalf("1/%d: a real run breaks conservation: %v", den, err)
		}
		breaks := []func(c *cmp.CoreStats){
			func(c *cmp.CoreStats) { c.L1Hits++ },
			func(c *cmp.CoreStats) { c.L2LocalHits++ },
			func(c *cmp.CoreStats) { c.Writebacks++ },
		}
		for i, brk := range breaks {
			bad := res
			bad.Cores = append([]cmp.CoreStats(nil), res.Cores...)
			brk(&bad.Cores[len(bad.Cores)-1])
			e := testEnv(goldenSeed+1, nil)
			e.checkResults("broken", "r", bad)
			if e.ops.failed != 1 {
				t.Errorf("1/%d break %d: failed %d, want 1", den, i, e.ops.failed)
			}
		}
	}
}

// The recording decorator must be transparent: a run through it equals the
// undecorated run bit for bit, at full fidelity and sampled.
func TestHookRecorderTransparent(t *testing.T) {
	for _, den := range []int{0, 8} {
		cfg := smallConfig(den)
		want := resultsDigest(runSmall(t, cfg))

		e := testEnv(goldenSeed+1, nil)
		r := harness.NewRunner(cfg)
		h, err := recordHooks(e, r, mix4, "r", 0)
		if err != nil {
			t.Fatal(err)
		}
		if e.ops.attempted != 1 || e.ops.failed != 0 {
			t.Fatalf("1/%d: recorded run: attempted %d failed %d", den, e.ops.attempted, e.ops.failed)
		}
		if got := e.out.seen["r"]; got != want {
			t.Fatalf("1/%d: decorated digest %s, undecorated %s", den, got, want)
		}
		if h.calls[hookOnL2Access] == 0 || h.calls[hookTick] == 0 || len(h.recs) == 0 {
			t.Fatalf("1/%d: hooks not recorded: %v", den, h.calls)
		}
		pol, err := harness.NewPolicy(harness.PAVGCC, h.cores, h.sets, h.ways, h.seed, h.period)
		if err != nil {
			t.Fatal(err)
		}
		replayHooks(pol, h.recs)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q defined twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// Every per-layer metric names the end-to-end metrics and the workloads it
// should move.
func TestPerLayerMapping(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	wl := map[string]bool{}
	for _, n := range workloadNames() {
		wl[n] = true
	}
	for _, m := range perLayer {
		if len(m.Moves) == 0 || len(m.On) == 0 {
			t.Errorf("%s: no end-to-end metric or workload named", m.Name)
		}
		for _, mv := range m.Moves {
			if !e2e[mv] {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, mv)
			}
		}
		for _, w := range m.On {
			if !wl[w] {
				t.Errorf("%s names unknown workload %q", m.Name, w)
			}
		}
	}
}

// BENCHMARK.json at the repository root must describe what this program
// measures.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, here %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: BENCHMARK.json %d+%d, here %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v, here %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v, here %+v", i, m, d)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	kids := []span{
		{start: 2 * ms, end: 5 * ms},
		{start: 4 * ms, end: 7 * ms},  // overlaps the first: ran concurrently
		{start: 9 * ms, end: 12 * ms}, // runs past the parent's end
	}
	if got := covered(0, 10*ms, kids); got != 6*ms {
		t.Fatalf("covered %v, want 6ms", got)
	}
	tr := newTracer()
	root := tr.begin("perfbench.root", 0)
	tr.timed("cmp.Run", root, func(spanID) { time.Sleep(2 * ms) })
	tr.end(root)
	out := tr.export()
	if out[0].Self < 0 || out[0].Self > out[0].End-out[0].Start {
		t.Fatalf("root self %v outside its span", out[0].Self)
	}
	if out[1].Layer != "cmp" || out[1].Parent != out[0].ID {
		t.Fatalf("child span %+v", out[1])
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", 0); id != 0 || nilTracer.export() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}
