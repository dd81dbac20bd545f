// The set-sharded coherence directory: a Directory layered over a CacheGroup
// answers "which members hold block X" from a per-shard hash table instead of
// scanning the ganged tag row. The broadcast row scan is O(cores) per probe
// and only exists while the row fits one 64-bit match mask; the directory
// answers every holder-mask question in O(1) expected — one bounded
// linear-probe lookup — and invalidation chains in O(holders). NewGroup
// builds it for every group wider than the fused row (past 8 cores x 8 ways);
// narrower groups keep the scan, which wins end to end there because it has
// no per-insert maintenance to pay (DESIGN.md §13).
//
// Layout: the group's set index space is split into contiguous ranges, one
// per shard, so a shard owns every line whose set row falls in its range —
// the set-granular analogue of a banked directory, and the unit a future
// concurrent engine could lock independently. Each shard is a fixed-capacity
// open-addressing table (linear probing, backward-shift deletion) sized at
// construction to at least twice the lines its set range can hold, so the
// load factor never exceeds 1/2 and insertion cannot fail or allocate.
//
// Maintenance is event-driven from the member caches: every residency change
// (Insert, InsertWay, Invalidate — all funnelled through insertAt/Invalidate
// plus Insert's fused full-set path) notifies the directory via the hooks in
// cachesim.go. A member may transiently hold the same block in two ways
// (sequences only the fuzzers produce); removal therefore re-probes the
// member and keeps the holder bit while any copy survives. The directory is
// bit-exact against the broadcast scan by construction, and the group fuzzer
// drives both modes against independent caches to pin that.
package cachesim

// dirEntry is one occupied directory slot: the block address and the bitmask
// of members holding it. holders == 0 marks an empty slot, which is sound
// because an entry's holder set going empty is exactly when it is deleted.
type dirEntry struct {
	block   uint64
	holders uint64
}

// dirShard is the hash table owning one contiguous range of set rows.
type dirShard struct {
	entries []dirEntry
	mask    uint64 // len(entries)-1; len is a power of two
}

// Directory is the set-sharded holder index of a CacheGroup.
type Directory struct {
	shards     []dirShard
	setMask    uint64
	shardShift uint // set-index bits below the shard index
}

// dirHashMul is the 64-bit golden-ratio multiplier; block addresses are
// near-sequential per workload region, and the multiply spreads them across
// the shard's table.
const dirHashMul = 0x9e3779b97f4a7c15

// home returns block's preferred slot in the shard.
func (sh *dirShard) home(block uint64) uint64 {
	return (block * dirHashMul) >> 32 & sh.mask
}

// newDirectory builds the directory for a group of n members with the given
// geometry: min(numSets, dirShards) shards over contiguous set ranges, each
// sized to twice its range's line capacity.
func newDirectory(numSets, rowWays int) *Directory {
	const dirShards = 16
	shards := dirShards
	if numSets < shards {
		shards = numSets
	}
	setsPerShard := numSets / shards
	shift := uint(0)
	for 1<<shift < setsPerShard {
		shift++
	}
	linesPerShard := setsPerShard * rowWays
	cap := 8
	for cap < 2*linesPerShard {
		cap <<= 1
	}
	d := &Directory{
		shards:     make([]dirShard, shards),
		setMask:    uint64(numSets - 1),
		shardShift: shift,
	}
	backing := make([]dirEntry, shards*cap)
	for i := range d.shards {
		d.shards[i] = dirShard{
			entries: backing[i*cap : (i+1)*cap : (i+1)*cap],
			mask:    uint64(cap - 1),
		}
	}
	return d
}

// shardFor returns the shard owning block's set row.
func (d *Directory) shardFor(block uint64) *dirShard {
	return &d.shards[(block&d.setMask)>>d.shardShift]
}

// holders returns the bitmask of members holding block (0 when untracked).
func (d *Directory) holders(block uint64) uint64 {
	sh := d.shardFor(block)
	for i := sh.home(block); ; i = (i + 1) & sh.mask {
		e := sh.entries[i]
		if e.holders == 0 {
			return 0
		}
		if e.block == block {
			return e.holders
		}
	}
}

// add records that member holds block. The table can never fill: capacity is
// at least twice the owning set range's line count, and distinct tracked
// blocks cannot exceed that line count.
func (d *Directory) add(block uint64, member int) {
	sh := d.shardFor(block)
	for i := sh.home(block); ; i = (i + 1) & sh.mask {
		e := &sh.entries[i]
		if e.holders == 0 {
			e.block = block
			e.holders = 1 << uint(member)
			return
		}
		if e.block == block {
			e.holders |= 1 << uint(member)
			return
		}
	}
}

// remove clears member's holder bit for block, deleting the entry when the
// holder set empties. Absent blocks are tolerated (an insert may overwrite an
// invalid-proto line that was never tracked).
func (d *Directory) remove(block uint64, member int) {
	sh := d.shardFor(block)
	for i := sh.home(block); ; i = (i + 1) & sh.mask {
		e := &sh.entries[i]
		if e.holders == 0 {
			return
		}
		if e.block == block {
			e.holders &^= 1 << uint(member)
			if e.holders == 0 {
				sh.del(i)
			}
			return
		}
	}
}

// del empties slot i and backward-shifts the probe chain behind it so every
// surviving entry stays reachable from its home slot — the standard deletion
// for linear probing, avoiding tombstones that would degrade lookups.
func (sh *dirShard) del(i uint64) {
	for {
		sh.entries[i] = dirEntry{}
		j := i
		for {
			j = (j + 1) & sh.mask
			e := sh.entries[j]
			if e.holders == 0 {
				return
			}
			// Move e back into the hole iff its home slot does not sit
			// (cyclically) strictly between the hole and j — i.e. the hole is
			// on e's probe path.
			if (j-sh.home(e.block))&sh.mask >= (j-i)&sh.mask {
				sh.entries[i] = e
				i = j
				break
			}
		}
	}
}

// occupancy returns the number of tracked blocks (tests, debugging).
func (d *Directory) occupancy() int {
	n := 0
	for i := range d.shards {
		for _, e := range d.shards[i].entries {
			if e.holders != 0 {
				n++
			}
		}
	}
	return n
}
