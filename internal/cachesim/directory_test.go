// White-box tests for the set-sharded coherence directory: shard hash-table
// mechanics (collision chains, backward-shift deletion), maintenance against
// a map oracle under random group traffic, the geometry rule that picks the
// coherence mode, and the probe-cost benchmarks the scaleout block of
// scripts/bench_kernel.sh records (broadcast row scan at 4/8 cores,
// directory lookup at 4/8/16/64). The black-box differential wall lives
// in group_diff_test.go; FuzzDirectoryEquivalence in internal/cmp pins the
// full engine.
package cachesim

import (
	"fmt"
	"testing"

	"ascc/internal/rng"
)

// TestDirectoryShardChains drives one small shard table through add/remove
// sequences chosen to collide, against a map oracle, so linear probing and
// backward-shift deletion are checked directly — including removals from the
// middle of a probe chain, the case naive deletion breaks.
func TestDirectoryShardChains(t *testing.T) {
	// 4 sets, 8 row ways -> one small table; all blocks below land in a
	// handful of slots and chain.
	d := newDirectory(4, 8)
	oracle := map[uint64]uint64{}
	r := rng.New(0xd1c7)
	for op := 0; op < 200_000; op++ {
		block := r.Uint64() % 24 // tiny space: constant collisions
		member := int(r.Uint64() % 8)
		switch r.Uint64() % 3 {
		case 0, 1:
			d.add(block, member)
			oracle[block] |= 1 << uint(member)
		case 2:
			d.remove(block, member)
			if m := oracle[block] &^ (1 << uint(member)); m == 0 {
				delete(oracle, block)
			} else {
				oracle[block] = m
			}
		}
		if got, want := d.holders(block), oracle[block]; got != want {
			t.Fatalf("op %d: holders(%d) = %b, oracle %b", op, block, got, want)
		}
	}
	if got, want := d.occupancy(), len(oracle); got != want {
		t.Fatalf("occupancy %d, oracle tracks %d blocks", got, want)
	}
	for block, want := range oracle {
		if got := d.holders(block); got != want {
			t.Fatalf("final holders(%d) = %b, oracle %b", block, got, want)
		}
	}
}

// TestEnableDirectoryIndexesExistingContents checks that flipping a
// populated group into directory mode indexes what is already resident.
func TestEnableDirectoryIndexesExistingContents(t *testing.T) {
	cfg := Config{SizeBytes: 4 * 8 * 64, Ways: 8, LineBytes: 64}
	g := NewGroup(4, cfg)
	for c := 0; c < 4; c++ {
		for b := uint64(0); b < 16; b += uint64(c + 1) {
			g.Cache(c).Insert(b, InsertMRU, Line{State: Shared, Owner: int16(c)})
		}
	}
	want := make(map[uint64]uint64)
	for c := 0; c < 4; c++ {
		g.Cache(c).ForEachLine(func(_, _ int, l *Line) { want[l.Tag] |= 1 << uint(c) })
	}
	g.EnableDirectory()
	if !g.DirectoryEnabled() {
		t.Fatal("directory not enabled")
	}
	for b := uint64(0); b < 64; b++ {
		if got := g.HolderMask(b); got != want[b] {
			t.Fatalf("HolderMask(%d) = %b after EnableDirectory, want %b", b, got, want[b])
		}
	}
}

// TestNewGroupPicksCoherenceMode pins the construction-time rule: a group
// whose ganged row fits one 64-bit match mask on the packed kernel keeps the
// fused broadcast scan; anything wider, or unpacked, gets the directory.
func TestNewGroupPicksCoherenceMode(t *testing.T) {
	cases := []struct {
		n, ways   int
		directory bool
	}{
		{1, 16, false},
		{4, 8, false}, // the paper's machine
		{8, 8, false}, // 64 row ways: the fused boundary
		{16, 4, false},
		{9, 8, true},
		{17, 4, true},
		{2, 32, true}, // 64 row ways, but past the packed kernel
	}
	for _, tc := range cases {
		cfg := Config{SizeBytes: 4 * tc.ways * 64, Ways: tc.ways, LineBytes: 64}
		g := NewGroup(tc.n, cfg)
		if got := g.DirectoryEnabled(); got != tc.directory {
			t.Errorf("%d members x %d ways: DirectoryEnabled() = %v, want %v", tc.n, tc.ways, got, tc.directory)
		}
		if !tc.directory {
			continue
		}
		// Forcing the directory on a group that already has one keeps the
		// index it has maintained, not a rebuilt copy.
		g.Cache(0).Insert(3, InsertMRU, Line{State: Shared})
		d := g.dir
		g.EnableDirectory()
		if g.dir != d || g.HolderMask(3) != 1 {
			t.Errorf("%d members x %d ways: EnableDirectory on a directory group was not a no-op", tc.n, tc.ways)
		}
	}
}

// TestNewGroupRejectsOversizedGroups pins the uint64 holder-mask limit.
func TestNewGroupRejectsOversizedGroups(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 8 * 64, Ways: 8, LineBytes: 64}
	defer func() {
		if recover() == nil {
			t.Fatal("NewGroup(65, ...) did not panic")
		}
	}()
	NewGroup(65, cfg)
}

// TestProbeCountParity pins that directory and broadcast mode count the same
// number of coherence probes for the same query sequence — the property that
// makes the scaling table's probe column comparable across modes.
func TestProbeCountParity(t *testing.T) {
	cfg := Config{SizeBytes: 8 * 8 * 64, Ways: 8, LineBytes: 64}
	run := func(directory bool) (probes uint64) {
		g := NewGroup(8, cfg)
		if directory {
			g.EnableDirectory()
		}
		r := rng.New(0x9e37)
		for op := 0; op < 50_000; op++ {
			c := int(r.Uint64() % 8)
			block := r.Uint64() % 512
			switch r.Uint64() % 4 {
			case 0:
				// The demand path: a local miss snoops the peers, then fills.
				if _, hit := g.Cache(c).Access(block); !hit {
					st := Shared
					if g.HolderMask(block)&^(1<<uint(c)) == 0 {
						st = Exclusive
					}
					g.Cache(c).Insert(block, InsertMRU, Line{State: st, Owner: int16(c)})
				}
			case 1:
				g.HolderMask(block)
			case 2:
				g.InvalidateOthers(block, c)
			case 3:
				g.LastCopy(block, c)
			}
		}
		return g.Probes()
	}
	bp, dp := run(false), run(true)
	if bp != dp || bp == 0 {
		t.Fatalf("probe counts differ: broadcast %d, directory %d", bp, dp)
	}
}

// benchGroup builds an n-member group with a mixed-sharing resident
// population: roughly half the blocks private, the rest held by 2..5 members.
// Groups past the fused row width are directory-backed whatever directory
// says.
func benchGroup(n int, directory bool) (*CacheGroup, []uint64) {
	cfg := Config{SizeBytes: 512 * 8 * 64, Ways: 8, LineBytes: 64}
	g := NewGroup(n, cfg)
	if directory {
		g.EnableDirectory()
	}
	r := rng.New(uint64(0xbe * n))
	blocks := make([]uint64, 4096)
	for i := range blocks {
		b := r.Uint64() >> 16
		blocks[i] = b
		holders := 1 + int(r.Uint64()%5)
		for h := 0; h < holders; h++ {
			c := int(r.Uint64() % uint64(n))
			g.Cache(c).Insert(b, InsertMRU, Line{State: Shared, Owner: int16(c)})
		}
	}
	return g, blocks
}

// BenchmarkCoherenceProbe measures one HolderMask query — the primitive
// under every miss, eviction and upgrade — as the group grows: the broadcast
// scan at the widths where NewGroup keeps it (4 and 8 members of 8 ways),
// the directory at 4/8/16/64. The acceptance bar for the scaleout bench
// block: the 64-core directory probe costs at most 2x the 4-core broadcast
// scan.
func BenchmarkCoherenceProbe(b *testing.B) {
	cells := []struct {
		mode string
		n    int
	}{
		{"broadcast", 4}, {"broadcast", 8},
		{"directory", 4}, {"directory", 8}, {"directory", 16}, {"directory", 64},
	}
	for _, c := range cells {
		g, blocks := benchGroup(c.n, c.mode == "directory")
		b.Run(fmt.Sprintf("%s-%dcores", c.mode, c.n), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += g.HolderMask(blocks[i&4095])
			}
			benchSink = sink
		})
	}
}

var benchSink uint64
