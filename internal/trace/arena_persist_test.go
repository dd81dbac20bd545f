package trace

import (
	"errors"
	"testing"
)

// persistRefs is a stream long enough to span more than one chunk, with an
// escape record every 1000 references so the words carry both record
// shapes.
func persistRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{Addr: uint64(i%4093) * 32, Gap: int32(i % 7), Write: i%3 == 0}
		if i%1000 == 999 {
			refs[i].Gap = 1 << 20 // oversized gap: escape record
		}
	}
	return refs
}

// snapshotWords streams an arena's frozen prefix into one slice.
func snapshotWords(t *testing.T, a *Arena) ([]uint64, ArenaSnapshot) {
	t.Helper()
	var words []uint64
	spans := 0
	snap, err := a.Snapshot(func(span []uint64) error {
		if len(span) > arenaChunkWords {
			t.Fatalf("span of %d words exceeds one chunk", len(span))
		}
		spans++
		words = append(words, span...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(words) + arenaChunkWords - 1) / arenaChunkWords; spans != want {
		t.Fatalf("%d spans for %d words, want %d", spans, len(words), want)
	}
	return words, snap
}

// TestSnapshotAdoptRoundTrip is the store tier's contract in one process:
// Snapshot streams a consistent prefix, WalkPacked agrees with its
// dimensions, and an arena adopted over those words replays the original
// stream — through the adopted prefix, across the copied tail chunk, and on
// past it, where the fresh source generator is fast-forwarded over the
// prefix before live appending resumes.
func TestSnapshotAdoptRoundTrip(t *testing.T) {
	refs := persistRefs(3 * arenaChunkWords / 2)
	src, err := NewReplay("persist", refs)
	if err != nil {
		t.Fatal(err)
	}
	orig := NewArena(src)
	orig.Extend(uint64(arenaChunkWords) + 100)
	words, snap := snapshotWords(t, orig)
	if snap.Words != uint64(len(words)) || snap.Refs != orig.Refs() {
		t.Fatalf("snapshot %+v, streamed %d words, arena holds %d refs", snap, len(words), orig.Refs())
	}
	if len(words) <= arenaChunkWords || len(words)%arenaChunkWords == 0 {
		t.Fatalf("%d words: want a full chunk plus a partial tail", len(words))
	}
	n, last, ok := WalkPacked(words)
	if !ok || n != snap.Refs || last != snap.LastAddr {
		t.Fatalf("WalkPacked = (%d, %#x, %v), snapshot %+v", n, last, ok, snap)
	}

	mapped := append([]uint64(nil), words...) // stands in for the mmap
	fresh, _ := NewReplay("persist", refs)
	adopted := AdoptFrozen(fresh, mapped, snap.Refs, snap.LastAddr)
	if adopted.Name() != "persist" || adopted.Refs() != snap.Refs {
		t.Fatalf("adopted arena %q holds %d refs, want persist/%d", adopted.Name(), adopted.Refs(), snap.Refs)
	}
	rp := adopted.NewReplayer()
	want, _ := NewReplay("persist", refs)
	total := int(snap.Refs) + 2*arenaExtendAhead // well past the adopted prefix
	got := make([]Ref, 509)
	exp := make([]Ref, 509)
	for done := 0; done < total; done += len(got) {
		rp.NextBatch(got)
		want.NextBatch(exp)
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("ref %d: adopted %+v, source %+v", done+i, got[i], exp[i])
			}
		}
	}
	if adopted.Refs() <= snap.Refs {
		t.Fatal("replaying past the prefix did not extend the adopted arena")
	}
	for i := range words {
		if mapped[i] != words[i] {
			t.Fatalf("extension wrote into the adopted words at %d", i)
		}
	}
}

// packRecords packs refs through an arena and returns exactly their words
// (the arena packs whole generator batches, so the snapshot runs on past
// them) plus the word offset at which each record ends.
func packRecords(t *testing.T, refs []Ref) (words []uint64, bounds []int) {
	t.Helper()
	src, _ := NewReplay("records", refs)
	a := NewArena(src)
	a.Extend(uint64(len(refs)))
	all, _ := snapshotWords(t, a)
	pos := 0
	for range refs {
		if (all[pos]>>1)&packGapMask == packGapMask {
			pos += 3
		} else {
			pos++
		}
		bounds = append(bounds, pos)
	}
	return all[:pos], bounds
}

// TestAdoptFrozenShortPrefix adopts prefixes shorter than one generator
// batch — including none at all — so the fast-forward discards a partial
// batch, and checks the replay still matches the source stream.
func TestAdoptFrozenShortPrefix(t *testing.T) {
	refs := persistRefs(300)
	words, bounds := packRecords(t, refs[:7])
	for _, k := range []int{0, 1, 7} {
		end := 0
		var last uint64
		if k > 0 {
			end = bounds[k-1]
			last = refs[k-1].Addr
		}
		src, _ := NewReplay("short", refs)
		rp := AdoptFrozen(src, words[:end], uint64(k), last).NewReplayer()
		for i := 0; i < 2*len(refs); i++ {
			if got, want := rp.Next(), refs[i%len(refs)]; got != want {
				t.Fatalf("prefix %d, ref %d: got %+v want %+v", k, i, got, want)
			}
		}
	}
}

// TestSnapshotPropagatesWriterError: a failing sink aborts the snapshot
// with its error and no dimensions, so a half-written store file is never
// described as complete.
func TestSnapshotPropagatesWriterError(t *testing.T) {
	src, _ := NewReplay("err", persistRefs(100))
	a := NewArena(src)
	a.Extend(100)
	boom := errors.New("disk full")
	snap, err := a.Snapshot(func([]uint64) error { return boom })
	if !errors.Is(err, boom) || snap != (ArenaSnapshot{}) {
		t.Fatalf("Snapshot = (%+v, %v), want zero snapshot and the sink's error", snap, err)
	}
}

// TestWalkPackedTruncation cuts a valid stream at every length: a cut on a
// record boundary walks cleanly and counts exactly the whole records before
// it, while a cut inside an escape record — the marker without its address
// or gap word — is rejected, so a truncated store file can never march a
// replayer's cursor past the words it holds.
func TestWalkPackedTruncation(t *testing.T) {
	refs := []Ref{
		{Addr: 64, Gap: 1},
		{Addr: 1 << 60, Gap: 2, Write: true}, // delta overflow: escape
		{Addr: 96, Gap: 3},
		{Addr: 128, Gap: -1}, // negative gap: escape
		{Addr: 160, Gap: 0, Write: true},
		{Addr: 7, Gap: packGapMask}, // gap at the field maximum: escape (final record)
	}
	words, bounds := packRecords(t, refs)
	for cut := 0; cut <= len(words); cut++ {
		whole := 0
		for whole < len(bounds) && bounds[whole] <= cut {
			whole++
		}
		onBoundary := cut == 0 || (whole > 0 && bounds[whole-1] == cut)
		n, last, ok := WalkPacked(words[:cut])
		if ok != onBoundary {
			t.Fatalf("cut %d: ok=%v, want %v", cut, ok, onBoundary)
		}
		if ok && n != uint64(whole) {
			t.Fatalf("cut %d: walked %d refs, want %d", cut, n, whole)
		}
		if ok && whole > 0 && last != refs[whole-1].Addr {
			t.Fatalf("cut %d: last address %#x, want %#x", cut, last, refs[whole-1].Addr)
		}
	}
}

// TestWalkPackedCorruptWords feeds word streams no encoder produced: a lone
// escape marker, a marker whose other bits are set (the gap field alone
// marks an escape, as in the decoder), and arbitrary words. The walk must
// never read past the stream, must flag a trailing partial escape, and
// must count at most one reference per word.
func TestWalkPackedCorruptWords(t *testing.T) {
	dirtyMarker := packEscape | 1 | 5<<(packGapBits+1)
	cases := []struct {
		name  string
		words []uint64
		refs  uint64
		ok    bool
	}{
		{"empty", nil, 0, true},
		{"lone marker", []uint64{packEscape}, 0, false},
		{"marker and address only", []uint64{packEscape, 1 << 40}, 0, false},
		{"dirty marker is an escape", []uint64{dirtyMarker, 1 << 40, 3}, 1, true},
		{"dirty marker truncated", []uint64{1 << (packGapBits + 1), dirtyMarker, 9}, 1, false},
		{"all ones", []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}, 1, false},
	}
	for _, tc := range cases {
		n, _, ok := WalkPacked(tc.words)
		if n != tc.refs || ok != tc.ok {
			t.Errorf("%s: WalkPacked = (%d, %v), want (%d, %v)", tc.name, n, ok, tc.refs, tc.ok)
		}
	}
	// Arbitrary words: whatever the verdict, the count stays bounded by the
	// stream length.
	x := uint64(0x9e3779b97f4a7c15)
	words := make([]uint64, 257)
	for i := range words {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		words[i] = x
	}
	for cut := 0; cut <= len(words); cut++ {
		if n, _, _ := WalkPacked(words[:cut]); n > uint64(cut) {
			t.Fatalf("cut %d: walked %d refs from %d words", cut, n, cut)
		}
	}
}
