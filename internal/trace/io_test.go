package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRefs() []Ref {
	return []Ref{
		{Addr: 0x1000, Write: false, Gap: 3},
		{Addr: 0xdeadbeef00, Write: true, Gap: 0},
		{Addr: 0, Write: false, Gap: 1 << 20},
		{Addr: 1<<42 - 32, Write: true, Gap: 7},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sampleRefs() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Fatalf("count %d", w.Count())
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 {
		t.Fatalf("read %d refs", len(back))
	}
	for i, r := range sampleRefs() {
		if back[i] != r {
			t.Fatalf("ref %d: %+v != %+v", i, back[i], r)
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	refs, err := ReadBinary(&buf)
	if err != nil || len(refs) != 0 {
		t.Fatalf("empty trace: %v refs, err %v", refs, err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTATRACEFILE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("AS")); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Ref{Addr: 1 << 40, Gap: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, seed uint64) bool {
		if len(addrs) == 0 {
			return true
		}
		refs := make([]Ref, len(addrs))
		for i, a := range addrs {
			refs[i] = Ref{Addr: a, Write: a%3 == 0, Gap: int32(a % 1000)}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range refs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil || len(back) != len(refs) {
			return false
		}
		for i := range refs {
			if back[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRefs()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sampleRefs() {
		if back[i] != r {
			t.Fatalf("ref %d: %+v != %+v", i, back[i], r)
		}
	}
}

func TestCSVSkipsCommentsAndHeader(t *testing.T) {
	in := "# a comment\naddr,write,gap\n0x20,1,5\n\n64,0,2\n"
	refs, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].Addr != 0x20 || !refs[0].Write || refs[1].Addr != 64 {
		t.Fatalf("parsed %+v", refs)
	}
}

func TestCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"fields": "1,2\n",
		"addr":   "zz,0,1\n",
		"write":  "0x10,7,1\n",
		"gap":    "0x10,0,-4\n",
		"empty":  "# nothing\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: bad CSV accepted", name)
		}
	}
}

func TestReplayCycles(t *testing.T) {
	rp, err := NewReplay("t", sampleRefs())
	if err != nil {
		t.Fatal(err)
	}
	if rp.Name() != "t" || rp.Len() != 4 {
		t.Fatalf("replay meta wrong: %s %d", rp.Name(), rp.Len())
	}
	for cycle := 0; cycle < 3; cycle++ {
		for i, want := range sampleRefs() {
			if got := rp.Next(); got != want {
				t.Fatalf("cycle %d ref %d: %+v != %+v", cycle, i, got, want)
			}
		}
	}
	if _, err := NewReplay("x", nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

func TestRecord(t *testing.T) {
	g := NewComposite("x", 1, 100, []Mixed{{Comp: &HotLines{Lines: 4}, Weight: 1}})
	refs := Record(g, 25)
	if len(refs) != 25 {
		t.Fatalf("recorded %d", len(refs))
	}
	// Recording must be replayable.
	rp, err := NewReplay("x", refs)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Next() != refs[0] {
		t.Fatal("replay differs from recording")
	}
}

// FuzzTraceReaders feeds arbitrary bytes to both trace-file readers. Trace
// files are untrusted user input, so neither reader may panic, and any
// references either accepts must survive a round trip through both
// writers unchanged.
func FuzzTraceReaders(f *testing.F) {
	f.Add([]byte(binaryMagic + "\x80\x20\x06\x00\x01"))
	f.Add([]byte("addr,write,gap\n0x1000,0,3\n# comment\n64,1,0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if refs, err := ReadBinary(bytes.NewReader(data)); err == nil {
			checkTraceRoundTrip(t, refs)
		}
		if refs, err := ReadCSV(bytes.NewReader(data)); err == nil {
			checkTraceRoundTrip(t, refs)
		}
	})
}

// checkTraceRoundTrip re-encodes refs through Writer and WriteCSV and
// requires each reader to return them unchanged.
func checkTraceRoundTrip(t *testing.T, refs []Ref) {
	t.Helper()
	var bin bytes.Buffer
	w := NewWriter(&bin)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadBinary(&bin); err != nil || !slices.Equal(got, refs) {
		t.Fatalf("binary round trip: err %v, got %v, want %v", err, got, refs)
	}
	if len(refs) == 0 {
		return // a CSV trace must hold at least one reference
	}
	var csv bytes.Buffer
	if err := WriteCSV(&csv, refs); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCSV(&csv); err != nil || !slices.Equal(got, refs) {
		t.Fatalf("CSV round trip: err %v, got %v, want %v", err, got, refs)
	}
}
