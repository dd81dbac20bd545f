package cmp

import (
	"reflect"
	"testing"

	"ascc/internal/cachesim"
	"ascc/internal/coop"
	"ascc/internal/policies"
	"ascc/internal/ssl"
	"ascc/internal/trace"
)

// sampledStats is a CoreStats with every field distinct and nonzero.
func sampledStats(seed uint64) CoreStats {
	var st CoreStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		n := seed*100 + uint64(i) + 1
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(n)
		case reflect.Float64:
			f.SetFloat(float64(n) + 0.5)
		}
	}
	st.Cycles = 1e6 + float64(seed) // above the BaseCPI share below
	return st
}

// requireScaled checks one core's reconstruction: instructions as-is, the
// BaseCPI share of the cycles as-is and the memory share times den, and
// every other counter — whatever fields CoreStats grows — times den.
func requireScaled(t *testing.T, raw, got CoreStats, den int, baseCPI float64) {
	t.Helper()
	base := float64(raw.Instructions) * baseCPI
	if want := base + (raw.Cycles-base)*float64(den); got.Cycles != want {
		t.Errorf("Cycles %v, want %v", got.Cycles, want)
	}
	if got.Instructions != raw.Instructions {
		t.Errorf("Instructions %d, want %d unscaled", got.Instructions, raw.Instructions)
	}
	rv, gv := reflect.ValueOf(raw), reflect.ValueOf(got)
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if name == "Cycles" || name == "Instructions" {
			continue
		}
		switch rf, gf := rv.Field(i), gv.Field(i); rf.Kind() {
		case reflect.Uint64:
			if gf.Uint() != rf.Uint()*uint64(den) {
				t.Errorf("%s %d, want %d x %d", name, gf.Uint(), rf.Uint(), den)
			}
		case reflect.Float64:
			if gf.Float() != rf.Float()*float64(den) {
				t.Errorf("%s %v, want %v x %d", name, gf.Float(), rf.Float(), den)
			}
		default:
			t.Fatalf("CoreStats.%s has kind %v: teach scaleSampled and this test about it", name, rf.Kind())
		}
	}
}

// TestScaleSampled pins the sampled-run reconstruction for both machines:
// the identity at full fidelity, and at 1/4 the per-field scaling of
// requireScaled, without touching the raw Results it was given.
func TestScaleSampled(t *testing.T) {
	const cores = 2
	timing := []CoreTiming{{BaseCPI: 1.5, Overlap: 0.5}, {BaseCPI: 0.75, Overlap: 0.3}}
	raw := Results{Policy: "baseline", Cores: []CoreStats{sampledStats(1), sampledStats(2)}}
	keep := Results{Policy: raw.Policy, Cores: append([]CoreStats(nil), raw.Cores...)}
	gens := func() []trace.Generator {
		g := make([]trace.Generator, cores)
		for i := range g {
			g[i] = &scriptGen{name: "s", refs: []trace.Ref{{Addr: 0}}}
		}
		return g
	}
	private := func(den int) *System {
		p := sampleFuzzParams(cores)
		p.SampleDen = den
		sys, err := New(p, gens(), timing, policies.NewBaseline())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	shared := func(den int) *System {
		p := sampleFuzzParams(cores)
		sp := SharedParams{
			Cores:            cores,
			L1:               p.L1,
			L2:               cachesim.Config{SizeBytes: p.L2.SizeBytes * cores, Ways: p.L2.Ways, LineBytes: p.L2.LineBytes},
			HitCycles:        18,
			MemLatencyCycles: p.MemLatencyCycles,
			SampleDen:        den,
		}
		sys, err := NewShared(sp, gens(), timing)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	for _, tc := range []struct {
		name  string
		scale func(den int) func(Results) Results
	}{
		{"private", func(den int) func(Results) Results { return private(den).ScaleSampled }},
		{"shared", func(den int) func(Results) Results { return shared(den).ScaleSampled }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.scale(0)(raw); !reflect.DeepEqual(got, raw) {
				t.Fatalf("full fidelity rescaled the results:\n%+v\n%+v", got, raw)
			}
			got := tc.scale(4)(raw)
			if got.Policy != raw.Policy || len(got.Cores) != cores {
				t.Fatalf("scaled results %q with %d cores", got.Policy, len(got.Cores))
			}
			for i := range raw.Cores {
				requireScaled(t, raw.Cores[i], got.Cores[i], 4, timing[i].BaseCPI)
			}
			if !reflect.DeepEqual(raw, keep) {
				t.Fatal("ScaleSampled mutated its input")
			}
		})
	}
}

// setRecorder is a policy that records the set index of every set-taking
// call and answers with recognisable values.
type setRecorder struct {
	coop.Base
	last  string
	set   int
	guest bool
	recv  []int
	allow func(int) bool
}

func (r *setRecorder) Name() string { return "recorder" }
func (r *setRecorder) rec(m string, set int) {
	r.last, r.set = m, set
}
func (r *setRecorder) OnL2Access(c, set int, hit bool) { r.rec("OnL2Access", set) }
func (r *setRecorder) Role(c, set int) ssl.Role {
	r.rec("Role", set)
	return ssl.Receiver
}
func (r *setRecorder) Receivers(c, set int) []int {
	r.rec("Receivers", set)
	return r.recv
}
func (r *setRecorder) OnSpillFail(c, set int) { r.rec("OnSpillFail", set) }
func (r *setRecorder) InsertPos(c, set int) cachesim.InsertPos {
	r.rec("InsertPos", set)
	return cachesim.InsertLRU
}
func (r *setRecorder) SpillInsertPos(c, set int, guestReused bool) cachesim.InsertPos {
	r.rec("SpillInsertPos", set)
	r.guest = guestReused
	return cachesim.InsertLRU
}
func (r *setRecorder) DemandVictimAllow(c, set int) func(int) bool {
	r.rec("DemandVictimAllow", set)
	return r.allow
}
func (r *setRecorder) SpillVictimAllow(c, set int) func(int) bool {
	r.rec("SpillVictimAllow", set)
	return r.allow
}

// TestSampledPolicyTranslatesSets drives every set-taking Policy method
// through the sampled wrapper with each compact set and checks the inner
// policy saw the full-geometry set and its answers came back unchanged;
// the set-free methods pass straight through.
func TestSampledPolicyTranslatesSets(t *testing.T) {
	p := sampleFuzzParams(2)
	p.SampleDen = 4
	spec, err := p.SampleSpec()
	if err != nil {
		t.Fatal(err)
	}
	inner := &setRecorder{recv: []int{1}, allow: func(w int) bool { return w == 2 }}
	w := wrapSampledPolicy(inner, spec)
	if w.Name() != "recorder" || w.GuestVictim() != coop.GuestAnyLRU || w.SwapEnabled() {
		t.Fatal("set-free methods did not pass through")
	}
	calls := []struct {
		method string
		call   func(cs int) bool // reports whether the answer passed through
	}{
		{"OnL2Access", func(cs int) bool { w.OnL2Access(0, cs, true); return true }},
		{"Role", func(cs int) bool { return w.Role(0, cs) == ssl.Receiver }},
		{"Receivers", func(cs int) bool { r := w.Receivers(0, cs); return len(r) == 1 && r[0] == 1 }},
		{"OnSpillFail", func(cs int) bool { w.OnSpillFail(1, cs); return true }},
		{"InsertPos", func(cs int) bool { return w.InsertPos(0, cs) == cachesim.InsertLRU }},
		{"SpillInsertPos", func(cs int) bool {
			return w.SpillInsertPos(1, cs, true) == cachesim.InsertLRU && inner.guest
		}},
		{"DemandVictimAllow", func(cs int) bool { f := w.DemandVictimAllow(0, cs); return f != nil && f(2) && !f(1) }},
		{"SpillVictimAllow", func(cs int) bool { f := w.SpillVictimAllow(1, cs); return f != nil && f(2) && !f(1) }},
	}
	for cs := 0; cs < spec.CompactSets(); cs++ {
		for _, c := range calls {
			inner.last, inner.set, inner.guest = "", -1, false
			if !c.call(cs) {
				t.Errorf("%s(compact %d): answer altered by the wrapper", c.method, cs)
			}
			if inner.last != c.method || inner.set != spec.OrigSet(cs) {
				t.Errorf("%s(compact %d): inner saw %s(set %d), want set %d",
					c.method, cs, inner.last, inner.set, spec.OrigSet(cs))
			}
		}
	}
}
