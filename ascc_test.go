package ascc_test

import (
	"strings"
	"testing"

	"ascc"
)

// tinyConfig keeps API tests fast.
func tinyConfig() ascc.Config {
	cfg := ascc.DefaultConfig()
	cfg.WarmupInstr = 200_000
	cfg.MeasureInstr = 500_000
	return cfg
}

func TestDefaultConfig(t *testing.T) {
	cfg := ascc.DefaultConfig()
	if cfg.Scale != 8 || cfg.MeasureInstr == 0 || cfg.WarmupInstr == 0 {
		t.Fatalf("unexpected default config: %+v", cfg)
	}
	paper := ascc.PaperScaleConfig()
	if paper.Scale != 1 || paper.MeasureInstr <= cfg.MeasureInstr {
		t.Fatalf("paper-scale config wrong: %+v", paper)
	}
}

func TestPoliciesList(t *testing.T) {
	pols := ascc.Policies()
	if len(pols) != 15 {
		t.Fatalf("have %d policies, want 15", len(pols))
	}
	seen := map[ascc.Policy]bool{}
	for _, p := range pols {
		if seen[p] {
			t.Fatalf("duplicate policy %q", p)
		}
		seen[p] = true
	}
	for _, want := range []ascc.Policy{ascc.Baseline, ascc.ASCC, ascc.AVGCC, ascc.QoSAVGCC, ascc.DSR, ascc.ECC} {
		if !seen[want] {
			t.Fatalf("missing policy %q", want)
		}
	}
}

func TestRunMixAPI(t *testing.T) {
	runner := ascc.NewRunner(tinyConfig())
	res, err := runner.RunMix([]int{445, 456}, ascc.ASCC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "ASCC" || len(res.Cores) != 2 {
		t.Fatalf("unexpected results: policy=%q cores=%d", res.Policy, len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.CPI() <= 0 {
			t.Errorf("core %d CPI %v", i, c.CPI())
		}
	}
	if _, err := runner.RunMix([]int{999}, ascc.ASCC); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := runner.RunMix([]int{445}, ascc.Policy("nope")); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestEveryPolicyRuns(t *testing.T) {
	runner := ascc.NewRunner(tinyConfig())
	for _, pol := range ascc.Policies() {
		res, err := runner.RunMix([]int{445, 456}, pol)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if err := res.Check(); err != nil {
			t.Errorf("%s: %v", pol, err)
		}
	}
}

func TestBenchmarksAPI(t *testing.T) {
	if len(ascc.Benchmarks()) != 13 {
		t.Fatalf("%d benchmarks, want 13", len(ascc.Benchmarks()))
	}
	p, err := ascc.BenchmarkByID(433)
	if err != nil || p.Name != "milc" {
		t.Fatalf("BenchmarkByID(433) = %v, %v", p, err)
	}
	if len(ascc.TwoAppMixes()) != 14 || len(ascc.FourAppMixes()) != 6 {
		t.Fatal("mix lists wrong")
	}
	if ascc.MixName([]int{445, 456}) != "445+456" {
		t.Fatal("MixName wrong")
	}
	if got := ascc.ExtendMix([]int{445, 456}, 5); ascc.MixName(got) != "445+456+445+456+445" {
		t.Fatalf("ExtendMix to 5 = %s", ascc.MixName(got))
	}
	if got := ascc.ExtendMix([]int{445, 456}, 0); len(got) != 2 {
		t.Fatalf("ExtendMix no-op widened to %d", len(got))
	}
}

func TestMetricsAPI(t *testing.T) {
	ws := ascc.WeightedSpeedup([]float64{2, 4}, []float64{2, 2})
	if ws != 1.5 {
		t.Fatalf("WeightedSpeedup = %v", ws)
	}
	h := ascc.HMeanFairness([]float64{2, 3}, []float64{2, 3})
	if h != 1 {
		t.Fatalf("HMeanFairness = %v", h)
	}
}

func TestStorageCostAPI(t *testing.T) {
	rep, err := ascc.StorageCost("AVGCC")
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalOverheadBits() != 20508 {
		t.Fatalf("AVGCC overhead = %d bits, want 20508", rep.TotalOverheadBits())
	}
	if _, err := ascc.StorageCost("nope"); err == nil {
		t.Fatal("unknown design accepted")
	}
}

func TestExperimentIDsResolve(t *testing.T) {
	ids := ascc.ExperimentIDs()
	if len(ids) != 21 {
		t.Fatalf("%d experiment ids, want 21", len(ids))
	}
	if _, err := ascc.RunExperiment(tinyConfig(), "nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// table5 is pure arithmetic: run it fully.
	res, err := ascc.RunExperiment(tinyConfig(), "table5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Table.String(), "AVGCC") {
		t.Fatal("table5 output missing AVGCC row")
	}
}

// TestHeadlineShape verifies the paper's core qualitative claim end to end
// through the public API: on a giver+taker mix, AVGCC beats the baseline
// in weighted speedup.
func TestHeadlineShape(t *testing.T) {
	cfg := ascc.DefaultConfig()
	cfg.WarmupInstr = 500_000
	cfg.MeasureInstr = 1_500_000
	runner := ascc.NewRunner(cfg)
	mix := []int{450, 462} // soplex (taker) + libquantum (streamer/giver)
	alone, err := runner.AloneCPIs(mix)
	if err != nil {
		t.Fatal(err)
	}
	base, err := runner.RunMix(mix, ascc.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	avgcc, err := runner.RunMix(mix, ascc.AVGCC)
	if err != nil {
		t.Fatal(err)
	}
	wsBase := ascc.WeightedSpeedup(ascc.CPIs(base), alone)
	ws := ascc.WeightedSpeedup(ascc.CPIs(avgcc), alone)
	if ws <= wsBase {
		t.Fatalf("AVGCC weighted speedup %.4f not above baseline %.4f", ws, wsBase)
	}
}
