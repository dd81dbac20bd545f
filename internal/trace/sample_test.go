package trace

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// scale-8 default geometry: 512 L2 sets, 32 L1 sets, SDM stride 16.
func defaultSpec(t *testing.T, den int) *SampleSpec {
	t.Helper()
	s, err := NewSampleSpec(512, 32, 32, den, 16)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSampleRatio(t *testing.T) {
	cases := []struct {
		in   string
		den  int
		fail bool
	}{
		{"off", 0, false}, {"", 0, false}, {"1/8", 8, false}, {"1/2", 2, false},
		{"1/1", 0, true}, {"2/8", 0, true}, {"8", 0, true}, {"1/x", 0, true},
		{"1/-4", 0, true}, {"on", 0, true},
	}
	for _, c := range cases {
		den, err := ParseSampleRatio(c.in)
		if c.fail {
			if err == nil {
				t.Errorf("ParseSampleRatio(%q) accepted", c.in)
			}
			continue
		}
		if err != nil || den != c.den {
			t.Errorf("ParseSampleRatio(%q) = %d, %v; want %d", c.in, den, err, c.den)
		}
	}
}

func TestSampleSpecValidation(t *testing.T) {
	cases := []struct {
		l2, l1, line, den int
	}{
		{512, 32, 32, 1},  // denominator < 2
		{512, 32, 32, 64}, // does not divide the granule
		{512, 32, 32, 3},  // not a power of two -> does not divide
		{512, 48, 32, 2},  // L1 sets not a power of two
		{100, 32, 32, 2},  // L2 sets not a power of two
		{16, 32, 32, 2},   // L2 smaller than L1
		{512, 32, 48, 2},  // line size not a power of two
	}
	for _, c := range cases {
		if _, err := NewSampleSpec(c.l2, c.l1, c.line, c.den, 16); err == nil {
			t.Errorf("NewSampleSpec(%+v) accepted", c)
		}
	}
}

// TestSampleSpecLeaders pins the deterministic residue choice on the scale-8
// geometry: the spill/receive SDM residues ({0,1} mod the 16-set stride)
// come first, then the DIP residues ({2,3}), then even fill.
func TestSampleSpecLeaders(t *testing.T) {
	cases := []struct {
		den  int
		want []int
	}{
		{16, []int{0, 1}},
		{8, []int{0, 1, 16, 17}},
		{4, []int{0, 1, 2, 3, 16, 17, 18, 19}},
	}
	for _, c := range cases {
		s := defaultSpec(t, c.den)
		if !reflect.DeepEqual(s.Residues, c.want) {
			t.Errorf("1/%d residues = %v, want %v", c.den, s.Residues, c.want)
		}
	}
	// 1/2 must contain every monitor residue plus an even follower spread.
	s := defaultSpec(t, 2)
	if len(s.Residues) != 16 {
		t.Fatalf("1/2 chose %d residues", len(s.Residues))
	}
	for _, r := range []int{0, 1, 2, 3, 16, 17, 18, 19} {
		if s.rank[r] < 0 {
			t.Errorf("1/2 sample dropped monitor residue %d", r)
		}
	}
}

// TestSampleRewriteRoundTrip pins the address rewrite: injective, inverted
// by UnrewriteBlock, set-index coherent with OrigSet/OrigL1Set, and sub-line
// bits preserved.
func TestSampleRewriteRoundTrip(t *testing.T) {
	s := defaultSpec(t, 8)
	cSets := uint64(s.CompactSets())
	seen := map[uint64]uint64{}
	for b := uint64(0); b < 4096; b++ {
		if !s.KeepBlock(b) {
			continue
		}
		rb := s.RewriteBlock(b)
		if prev, dup := seen[rb]; dup {
			t.Fatalf("rewrite collision: blocks %#x and %#x -> %#x", prev, b, rb)
		}
		seen[rb] = b
		if got := s.UnrewriteBlock(rb); got != b {
			t.Fatalf("unrewrite(%#x) = %#x, want %#x", rb, got, b)
		}
		cs := int(rb % cSets)
		if got := s.OrigSet(cs); got != int(b%uint64(s.Sets)) {
			t.Fatalf("block %#x: OrigSet(%d) = %d, want %d", b, cs, got, b%uint64(s.Sets))
		}
		cl1 := int(rb) % len(s.Residues)
		if got := s.OrigL1Set(cl1); got != int(b)%s.Granule {
			t.Fatalf("block %#x: OrigL1Set(%d) = %d, want %d", b, cl1, got, int(b)%s.Granule)
		}
		addr := b<<5 | 13 // 32B lines, arbitrary sub-line offset
		if got := s.RewriteAddr(addr); got != rb<<5|13 {
			t.Fatalf("RewriteAddr(%#x) = %#x, want %#x", addr, got, rb<<5|13)
		}
	}
	if len(seen) != 4096/8 {
		t.Fatalf("kept %d of 4096 blocks, want exactly 1/8", len(seen))
	}
}

// sliceGen replays a fixed script cyclically.
type sliceGen struct {
	refs []Ref
	pos  int
}

func (g *sliceGen) Name() string { return "script" }
func (g *sliceGen) Next() Ref {
	r := g.refs[g.pos]
	g.pos = (g.pos + 1) % len(g.refs)
	return r
}
func (g *sliceGen) NextBatch(buf []Ref) { FillBatch(g, buf) }

// sampleScript touches every residue of the 32-set granule with varied gaps
// and writes.
func sampleScript() []Ref {
	refs := make([]Ref, 0, 160)
	for i := 0; i < 160; i++ {
		refs = append(refs, Ref{
			Addr:  uint64(i%97) * 32,
			Write: i%5 == 0,
			Gap:   int32(i % 7),
		})
	}
	return refs
}

// TestSampledViewGapMerging drives View and FilterView over one script and
// checks the contract: both keep the same subsequence with identical merged
// gaps and write flags (FilterView at original addresses, View rewritten),
// and cumulative instructions at every kept reference exactly match the full
// stream's cumulative count at that reference.
func TestSampledViewGapMerging(t *testing.T) {
	s := defaultSpec(t, 8)
	script := sampleScript()
	filt := s.FilterView(&sliceGen{refs: script})
	rewr := s.View(&sliceGen{refs: script})

	var fullInstr int64
	pos := 0
	next := func() Ref { r := script[pos%len(script)]; pos++; return r }

	var keptInstr int64
	for i := 0; i < 300; i++ {
		f, w := filt.Next(), rewr.Next()
		// Advance the raw script to the next kept reference, summing
		// instructions.
		var raw Ref
		for {
			raw = next()
			fullInstr += int64(raw.Gap) + 1
			if s.Keep(raw.Addr) {
				break
			}
		}
		if f.Addr != raw.Addr || f.Write != raw.Write {
			t.Fatalf("kept ref %d: filter view %+v, raw %+v", i, f, raw)
		}
		if w.Addr != s.RewriteAddr(raw.Addr) || w.Write != raw.Write || w.Gap != f.Gap {
			t.Fatalf("kept ref %d: rewrite view %+v vs filter %+v (raw %+v)", i, w, f, raw)
		}
		keptInstr += int64(f.Gap) + 1
		if keptInstr != fullInstr {
			t.Fatalf("kept ref %d: cumulative instructions %d, full stream %d", i, keptInstr, fullInstr)
		}
	}
}

// TestSampledViewGapClamp pins the saturation behaviour: merged gaps beyond
// the int32 range clamp identically in both views.
func TestSampledViewGapClamp(t *testing.T) {
	s := defaultSpec(t, 8)
	// Residue 4 is not sampled at 1/8 ({0,1,16,17}); residue 0 is.
	skip := Ref{Addr: 4 * 32, Gap: math.MaxInt32 - 5}
	keep := Ref{Addr: 0, Gap: 7}
	script := []Ref{skip, skip, keep}
	f := s.FilterView(&sliceGen{refs: script}).Next()
	w := s.View(&sliceGen{refs: script}).Next()
	if f.Gap != math.MaxInt32 || w.Gap != math.MaxInt32 {
		t.Fatalf("merged gaps %d / %d, want clamped MaxInt32", f.Gap, w.Gap)
	}
}

// TestSampledViewArena packs a sampled view into an arena (the sub-arena
// path the harness caches) and checks the replay is bit-identical to
// streaming the view directly — merged gaps ride the codec's escape path
// when they outgrow the packed gap field.
func TestSampledViewArena(t *testing.T) {
	s := defaultSpec(t, 8)
	script := sampleScript()
	// Inflate one gap so at least one merged gap needs an escape record.
	script[3].Gap = 1 << 20
	direct := s.View(&sliceGen{refs: script})
	arena := NewArena(s.View(&sliceGen{refs: script}))
	rep := arena.NewReplayer()
	buf := make([]Ref, 64)
	want := make([]Ref, 64)
	for round := 0; round < 8; round++ {
		rep.NextBatch(buf)
		direct.NextBatch(want)
		for i := range buf {
			if buf[i] != want[i] {
				t.Fatalf("round %d ref %d: replay %+v, direct %+v", round, i, buf[i], want[i])
			}
		}
	}
}

// FuzzParseSampleRatio: the -sample grammar never panics, "off" is the only
// accepted spelling of full fidelity, and any accepted denominator is >= 2
// and re-parses to itself from its canonical "1/N" form.
func FuzzParseSampleRatio(f *testing.F) {
	for _, s := range []string{"off", "", "1/8", "1/2", "2/8", "8", "1/x", "on"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		den, err := ParseSampleRatio(v)
		if err != nil {
			return
		}
		if den == 0 {
			if v != "" && v != "off" {
				t.Fatalf("ParseSampleRatio(%q) = full fidelity", v)
			}
			return
		}
		if den < 2 {
			t.Fatalf("ParseSampleRatio(%q) accepted denominator %d", v, den)
		}
		canon := fmt.Sprintf("1/%d", den)
		if again, err := ParseSampleRatio(canon); err != nil || again != den {
			t.Fatalf("ParseSampleRatio(%q) = %d, but %q re-parses to %d, %v", v, den, canon, again, err)
		}
	})
}
