package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ascc"
)

// base returns the options the flag defaults produce.
func base() options {
	return options{scale: 8, seeds: 1, policy: "AVGCC", format: "text"}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // empty = valid
	}{
		{"defaults", func(o *options) { o.exp = "fig8" }, ""},
		{"scale zero", func(o *options) { o.scale = 0 }, "-scale"},
		{"scale negative", func(o *options) { o.scale = -1 }, "-scale"},
		{"seeds zero", func(o *options) { o.seeds = 0 }, "-seeds"},
		{"parallel negative", func(o *options) { o.parallel = -2 }, "-parallel"},
		{"bad format", func(o *options) { o.format = "xml" }, "format"},
		{"seeds without mix", func(o *options) { o.exp = "fig8"; o.seeds = 5 }, "-seeds"},
		{"seeds with mix ok", func(o *options) { o.mix = "445+456"; o.seeds = 5 }, ""},
		{"csv with mix", func(o *options) { o.mix = "445+456"; o.format = "csv" }, "-format"},
		{"json with trace", func(o *options) { o.traces = "a.trc"; o.format = "json" }, "-format"},
		{"mix and trace", func(o *options) { o.mix = "445"; o.traces = "a.trc" }, "mutually exclusive"},
		{"exp and mix", func(o *options) { o.exp = "fig8"; o.mix = "445+456" }, "-exp"},
		{"exp and trace", func(o *options) { o.exp = "fig8"; o.traces = "a.trc" }, "-exp"},
		{"parallel ok", func(o *options) { o.exp = "all"; o.parallel = 8 }, ""},
		{"trace cache budget ok", func(o *options) { o.exp = "all"; o.traceMB = 512 }, ""},
		{"negative cache budget", func(o *options) { o.traceMB = -1 }, "-trace-cache-mb"},
		{"policy with exp", func(o *options) { o.exp = "fig8"; o.policy = "ASCC"; o.policySet = true }, "-policy"},
		{"policy with all", func(o *options) { o.exp = "all"; o.policySet = true }, "-policy"},
		{"policy with mix ok", func(o *options) { o.mix = "445+456"; o.policy = "ASCC"; o.policySet = true }, ""},
		{"policy with trace ok", func(o *options) { o.traces = "a.trc"; o.policySet = true }, ""},
		{"default policy with exp ok", func(o *options) { o.exp = "fig8" }, ""},
		{"timing with exp", func(o *options) { o.exp = "fig8"; o.timing = true }, ""},
		{"timing with mix", func(o *options) { o.mix = "445+456"; o.timing = true }, ""},
		{"timing with csv exp", func(o *options) { o.exp = "fig8"; o.format = "csv"; o.timing = true }, ""},
		{"cores with exp ok", func(o *options) { o.exp = "all"; o.cores = 64 }, ""},
		{"cores with mix ok", func(o *options) { o.mix = "445+456"; o.cores = 16 }, ""},
		{"cores negative", func(o *options) { o.exp = "fig8"; o.cores = -4 }, "-cores"},
		{"cores over mask", func(o *options) { o.exp = "fig8"; o.cores = 65 }, "-cores"},
		{"cores with trace", func(o *options) { o.traces = "a.trc"; o.cores = 8 }, "-cores"},
		{"arena store with exp ok", func(o *options) { o.exp = "all"; o.storeDir = "/tmp/arenas" }, ""},
		{"arena store with mix ok", func(o *options) { o.mix = "445+456"; o.storeDir = "/tmp/arenas" }, ""},
		{"prewarm ok", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas" }, ""},
		{"prewarm without store", func(o *options) { o.prewarm = true }, "-arena-store"},
		{"prewarm with exp", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.exp = "fig8" }, "-prewarm"},
		{"prewarm with mix", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.mix = "445+456" }, "-prewarm"},
		{"prewarm with trace", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.traces = "a.trc" }, "-prewarm"},
		{"prewarm with seeds", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.seeds = 3 }, "-seeds"},
		{"sample exp ok", func(o *options) { o.exp = "all"; o.sample = "1/8" }, ""},
		{"sample mix ok", func(o *options) { o.mix = "445+456"; o.sample = "1/16" }, ""},
		{"sample off ok", func(o *options) { o.exp = "fig8"; o.sample = "off" }, ""},
		{"sample with store ok", func(o *options) { o.exp = "all"; o.sample = "1/8"; o.storeDir = "/tmp/arenas" }, ""},
		{"sample bad grammar", func(o *options) { o.exp = "fig8"; o.sample = "8" }, "-sample"},
		{"sample 1/1", func(o *options) { o.exp = "fig8"; o.sample = "1/1" }, "-sample"},
		{"sample 2/8", func(o *options) { o.exp = "fig8"; o.sample = "2/8" }, "-sample"},
		{"sample with trace", func(o *options) { o.traces = "a.trc"; o.sample = "1/8" }, "-sample"},
		{"sample with prewarm", func(o *options) { o.prewarm = true; o.storeDir = "/tmp/arenas"; o.sample = "1/8" }, "-prewarm"},
		{"sample with exp prefetch", func(o *options) { o.exp = "prefetch"; o.sample = "1/8" }, "prefetch"},
		{"sample with exp sampling", func(o *options) { o.exp = "sampling"; o.sample = "1/8" }, "-exp sampling"},
	}
	for _, tc := range cases {
		o := base()
		tc.mutate(&o)
		err := o.validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want error mentioning %q", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestConfigBudgetRescale checks the scale-relative instruction budgets that
// used to divide by zero at -scale 0 (now rejected by validate).
func TestConfigBudgetRescale(t *testing.T) {
	o := base()
	o.scale = 4
	cfg := o.config()
	if cfg.Scale != 4 {
		t.Fatalf("scale %d", cfg.Scale)
	}
	def := base().config()
	if cfg.WarmupInstr != def.WarmupInstr*2 || cfg.MeasureInstr != def.MeasureInstr*2 {
		t.Fatalf("budgets not rescaled: %d/%d vs default %d/%d",
			cfg.WarmupInstr, cfg.MeasureInstr, def.WarmupInstr, def.MeasureInstr)
	}
	o = base()
	o.warmup, o.measure = 111, 222
	cfg = o.config()
	if cfg.WarmupInstr != 111 || cfg.MeasureInstr != 222 {
		t.Fatalf("explicit budgets not honoured: %d/%d", cfg.WarmupInstr, cfg.MeasureInstr)
	}
	o = base()
	o.parallel = 3
	if o.config().Parallel != 3 {
		t.Fatal("parallel not propagated to the config")
	}
}

// retiredCase is one command line and the retired-flag error it must
// raise (empty = accepted).
type retiredCase struct {
	args    []string
	wantErr string
}

// checkRetired runs retiredFlag over each case: a rejection must name the
// flag and point at the DESIGN.md section that records its removal.
func checkRetired(t *testing.T, section string, cases []retiredCase) {
	t.Helper()
	for _, tc := range cases {
		err := retiredFlag(tc.args)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: unexpected error %v", tc.args, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%q: accepted, want error mentioning %q", tc.args, tc.wantErr)
		case err != nil && (!strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), section)):
			t.Errorf("%q: error %q does not mention %q and %s", tc.args, err, tc.wantErr, section)
		}
	}
}

// TestConfigEngine pins that the engine is no longer a choice: -engine,
// in every spelling the flag package would accept and alongside -sample,
// fails with a pointer to the removal, while look-alikes (a positional
// "engine", or -engine after the "--" terminator) pass through.
func TestConfigEngine(t *testing.T) {
	checkRetired(t, "DESIGN.md §12", []retiredCase{
		{[]string{"-exp", "all", "-engine", "fused"}, "-engine was removed"},
		{[]string{"-exp", "all", "-engine=batched"}, "-engine was removed"},
		{[]string{"--engine", "refstep", "-exp", "fig8"}, "-engine was removed"},
		{[]string{"-exp", "all", "-sample", "1/8", "-engine", "fused"}, "-engine was removed"},
		{[]string{"-mix", "445+456", "engine"}, ""},
		{[]string{"-exp", "fig8", "--", "-engine"}, ""},
	})
}

// TestRetiredFlags pins the rejection of -sim-parallel, the flag that
// selected the removed speculative engine, of -directory, the coherence
// mode switch the L2 geometry now decides, and of -trace-cache, the switch
// back to live stream synthesis, and that ordinary command lines pass the
// check (-trace-cache-mb, the arena budget, among them).
func TestRetiredFlags(t *testing.T) {
	checkRetired(t, "DESIGN.md §12", []retiredCase{
		{[]string{"-exp", "fig8"}, ""},
		{[]string{"-exp", "all", "-sim-parallel", "4"}, "-sim-parallel was removed"},
		{[]string{"-exp", "fig8", "--sim-parallel=1"}, "-sim-parallel was removed"},
		{[]string{"-exp", "all", "-sample", "1/8", "-sim-parallel", "4"}, "-sim-parallel was removed"},
		{[]string{"-exp", "fig8", "--", "-sim-parallel"}, ""},
	})
	checkRetired(t, "DESIGN.md §13", []retiredCase{
		{[]string{"-exp", "all", "-directory"}, "-directory was removed"},
		{[]string{"-exp", "all", "-directory=false"}, "-directory was removed"},
		{[]string{"--directory", "-mix", "445+456"}, "-directory was removed"},
		{[]string{"-exp", "scaleout", "-cores", "16", "-directory=true"}, "-directory was removed"},
		{[]string{"-exp", "all", "-sample", "1/8", "--directory=false"}, "-directory was removed"},
		{[]string{"-mix", "445+456", "directory"}, ""},
		{[]string{"-exp", "fig8", "--", "-directory"}, ""},
	})
	checkRetired(t, "DESIGN.md §10", []retiredCase{
		{[]string{"-exp", "all", "-trace-cache"}, "-trace-cache was removed"},
		{[]string{"-exp", "all", "-trace-cache=false"}, "-trace-cache was removed"},
		{[]string{"--trace-cache", "-mix", "445+456"}, "-trace-cache was removed"},
		{[]string{"-mix", "445+456", "--trace-cache=false"}, "-trace-cache was removed"},
		{[]string{"-exp", "all", "-trace-cache-mb", "512"}, ""},
		{[]string{"-exp", "all", "--trace-cache-mb=512"}, ""},
		{[]string{"-exp", "fig8", "--", "-trace-cache"}, ""},
	})
}

// TestFlags pins the command-line surface: the flag count, so a retired
// flag stays retired, and the -exp usage string, which must name every
// experiment id.
func TestFlags(t *testing.T) {
	fs := flag.NewFlagSet("asccbench", flag.ContinueOnError)
	var o options
	o.register(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 20 {
		t.Errorf("%d flags registered, want 20", n)
	}
	usage := fs.Lookup("exp").Usage
	for _, id := range ascc.ExperimentIDs() {
		if !strings.Contains(usage, id) {
			t.Errorf("-exp usage %q does not list %q", usage, id)
		}
	}
}

// TestConfigScaleout pins the -cores plumbing into the harness
// configuration.
func TestConfigScaleout(t *testing.T) {
	if cfg := base().config(); cfg.Cores != 0 {
		t.Fatalf("default Cores = %d, want 0 (each mix's natural width)", cfg.Cores)
	}
	o := base()
	o.cores = 64
	if cfg := o.config(); cfg.Cores != 64 {
		t.Fatalf("-cores not propagated: %d", cfg.Cores)
	}
}

// TestConfigSample pins the -sample plumbing: the validated ratio reaches
// Config.SampleDen, and the default stays full fidelity.
func TestConfigSample(t *testing.T) {
	if got := base().config().SampleDen; got != 0 {
		t.Fatalf("default config SampleDen = %d, want 0 (full fidelity)", got)
	}
	o := base()
	o.sample = "1/8"
	if got := o.config().SampleDen; got != 8 {
		t.Fatalf("-sample 1/8 propagated as SampleDen %d", got)
	}
	o.sample = "off"
	if got := o.config().SampleDen; got != 0 {
		t.Fatalf("-sample off propagated as SampleDen %d", got)
	}
}

// TestStoreFlag pins the -arena-store value grammar: bare/on resolves to
// the conventional per-user root, off-ish spellings disable, anything else
// is the root itself; and the resolved directory reaches the harness
// configuration.
func TestStoreFlag(t *testing.T) {
	set := func(v string) (string, error) {
		dir := "sentinel"
		err := storeFlag{&dir}.Set(v)
		return dir, err
	}
	for _, v := range []string{"off", "false", "no", "0", "OFF"} {
		if dir, err := set(v); err != nil || dir != "" {
			t.Errorf("Set(%q) = %q, %v; want store disabled", v, dir, err)
		}
	}
	for _, v := range []string{"", "on", "true", "yes", "1"} {
		dir, err := set(v)
		if err != nil {
			continue // no resolvable user cache dir on this host: error is the contract
		}
		if dir == "" || dir == "sentinel" {
			t.Errorf("Set(%q) = %q; want the default store root", v, dir)
		}
	}
	if dir, err := set("/data/arenas"); err != nil || dir != "/data/arenas" {
		t.Errorf("Set(dir) = %q, %v; want the literal directory", dir, err)
	}

	o := base()
	o.storeDir = "/data/arenas"
	if got := o.config().ArenaStoreDir; got != "/data/arenas" {
		t.Fatalf("-arena-store not propagated to the config: %q", got)
	}
	if got := base().config().ArenaStoreDir; got != "" {
		t.Fatalf("store on by default: %q", got)
	}
}

// TestTimingWriter pins the -timing output routing: interleaved with the
// tables on stdout for humans, but diverted to stderr under the
// machine-readable formats so `asccbench -exp all -format csv -timing
// > out.csv` still yields a clean stream.
func TestTimingWriter(t *testing.T) {
	o := base()
	if o.timingWriter() != os.Stdout {
		t.Error("text-format timing must go to stdout")
	}
	for _, f := range []string{"csv", "json"} {
		o.format = f
		if o.timingWriter() != os.Stderr {
			t.Errorf("%s-format timing must go to stderr", f)
		}
	}
}

func TestParseMix(t *testing.T) {
	ids, err := parseMix("445+401+444+456")
	if err != nil || len(ids) != 4 || ids[0] != 445 || ids[3] != 456 {
		t.Fatalf("parseMix = %v, %v", ids, err)
	}
	if _, err := parseMix("445+abc"); err == nil {
		t.Fatal("bad mix element accepted")
	}
}

// FuzzParseMix: the -mix grammar never panics, and any accepted mix
// re-parses to the same ids from its canonical name.
func FuzzParseMix(f *testing.F) {
	for _, s := range []string{"445+456", "445+401+444+456", "445", "445+abc", "1e3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ids, err := parseMix(spec)
		if err != nil {
			return
		}
		name := ascc.MixName(ids)
		again, err := parseMix(name)
		if err != nil || fmt.Sprint(again) != fmt.Sprint(ids) {
			t.Fatalf("parseMix(%q) = %v, but its name %q re-parses to %v, %v", spec, ids, name, again, err)
		}
	})
}
