package trace

// Memoised packed reference-stream arena (DESIGN.md §10).
//
// The engine deliberately compares policies on bit-identical reference
// streams, yet historically every policy run of a mix re-synthesised the
// same stream from scratch — after the cache kernel and coherence probes
// were optimised, trace synthesis (component mixing, Zipf sampling, RNG
// draws) was the top of the steady-state profile. An Arena generates each
// stream once, packs it at one uint64 per reference, and replays it through
// any number of Replayers: the per-run synthesis cost becomes a
// once-per-(workload, seed) cost, and the replay path is a straight decode
// with no virtual component dispatch and no RNG draws.
//
// Concurrency protocol (single-writer, frozen-prefix readers): the arena is
// append-only. A single writer at a time — serialised by Arena.mu — pulls
// batches from the source generator and packs them into fixed-size chunks;
// it publishes progress by atomically storing the word and reference counts
// *after* the words are written, and publishes chunk-table growth by
// atomically swapping an immutable chunk-pointer slice. Readers never take
// the lock: they load the published reference count and only decode below
// it (the frozen prefix), so concurrent policy runs of very different
// lengths — including the "past-quota cores keep executing" tail — share
// one arena race-free, extending it on demand when they outrun the prefix.

import (
	"sync"
	"sync/atomic"
)

// Packed-word layout, least-significant bit first:
//
//	bit  0      write flag
//	bits 1..12  instruction gap (packGapBits wide)
//	bits 13..63 zigzag-encoded address delta to the previous reference
//
// A reference whose gap or delta does not fit falls back to an escape
// record: a word whose gap field is all-ones (the delta and write bits are
// zero), followed by the full 64-bit address and a word holding
// uint32(gap)<<1 | write. The workload models emit 32-byte-aligned
// addresses within a few hundred megabytes of their base and single-digit
// gaps, so in practice every reference packs into one word; the escape
// path exists so the codec is total over arbitrary Ref values (and is
// exercised by FuzzRefCodec's committed corpus).
const (
	packGapBits   = 12
	packGapMask   = 1<<packGapBits - 1
	packDeltaBits = 63 - packGapBits // 51
	packDeltaMax  = 1<<packDeltaBits - 1
	packEscape    = uint64(packGapMask) << 1
)

// arenaChunkWords is the fixed chunk size: 64 Ki words (512 KiB) holds
// ~65 k packed references, so a full default-budget simulation run stays
// within a few dozen chunks and the copy-on-grow chunk table stays tiny.
const (
	arenaChunkShift = 16
	arenaChunkWords = 1 << arenaChunkShift
	arenaChunkMask  = arenaChunkWords - 1
)

type arenaChunk [arenaChunkWords]uint64

// arenaGenBatch is how many references the writer pulls from the source
// generator per packing iteration, and arenaExtendAhead how far past the
// requested position an extension overshoots: readers hitting the end of
// the frozen prefix then pay one writer-lock acquisition per ~16 k
// references instead of one per 64-reference simulator batch.
const (
	arenaGenBatch    = 256
	arenaExtendAhead = 16384
)

// Arena is a chunked, append-only, packed encoding of one generator's
// reference stream. Build one with NewArena, replay it with NewReplayer;
// the source generator must not be used elsewhere once handed over.
type Arena struct {
	name string

	// chunks is the immutable chunk-pointer table; the writer swaps in a
	// longer copy when it fills a chunk. nwords/nrefs are the published
	// frozen prefix: readers may decode words below nwords, which always
	// form exactly nrefs whole references.
	chunks atomic.Pointer[[]*arenaChunk]
	nwords atomic.Uint64
	nrefs  atomic.Uint64

	// Writer state, guarded by mu: the source generator, its batch buffer,
	// the writer's private word/ref counts (mirrors of nwords/nrefs), the
	// encoder's previous address, and — for arenas adopted from the
	// persistent store (AdoptFrozen) — the references the fresh generator
	// must discard before live appending resumes.
	mu      sync.Mutex
	src     Generator
	genBuf  []Ref
	wwords  uint64
	wrefs   uint64
	encPrev uint64
	skip    uint64
}

// NewArena wraps src as the single producer of a packed arena. The arena
// owns src from here on: replaying and extending consume it.
func NewArena(src Generator) *Arena {
	a := &Arena{
		name:   src.Name(),
		src:    src,
		genBuf: make([]Ref, arenaGenBatch),
	}
	empty := []*arenaChunk{}
	a.chunks.Store(&empty)
	return a
}

// Name returns the source generator's name.
func (a *Arena) Name() string { return a.name }

// Refs returns the published reference count — the frozen prefix length
// any replayer may decode without synchronisation.
func (a *Arena) Refs() uint64 { return a.nrefs.Load() }

// Bytes returns the packed storage held by the arena (the memory the
// cache's budget accounts against).
func (a *Arena) Bytes() int64 {
	return int64(len(*a.chunks.Load())) * arenaChunkWords * 8
}

// Extend generates and packs references until the frozen prefix holds at
// least minRefs of them. Any goroutine may call it; the internal lock makes
// the generator single-writer, and concurrent readers keep decoding the
// already-published prefix while the extension runs.
func (a *Arena) Extend(minRefs uint64) {
	if a.nrefs.Load() >= minRefs {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.skip > 0 {
		a.fastForward()
	}
	for a.wrefs < minRefs {
		a.src.NextBatch(a.genBuf)
		for _, ref := range a.genBuf {
			a.appendRef(ref)
		}
		a.wrefs += uint64(len(a.genBuf))
		// Publication order matters: words first, then the ref count
		// readers gate on (atomic stores order these writes).
		a.nwords.Store(a.wwords)
		a.nrefs.Store(a.wrefs)
	}
}

// appendRef packs one reference at the write position. Writer-only.
func (a *Arena) appendRef(ref Ref) {
	delta := int64(ref.Addr - a.encPrev)
	zz := uint64(delta<<1) ^ uint64(delta>>63)
	gap := ref.Gap
	a.encPrev = ref.Addr
	if zz <= packDeltaMax && gap >= 0 && gap < packGapMask {
		w := zz<<(packGapBits+1) | uint64(gap)<<1
		if ref.Write {
			w |= 1
		}
		a.appendWord(w)
		return
	}
	// Escape record: marker, full address, gap+write word.
	a.appendWord(packEscape)
	a.appendWord(ref.Addr)
	gw := uint64(uint32(gap)) << 1
	if ref.Write {
		gw |= 1
	}
	a.appendWord(gw)
}

// appendWord stores one packed word, growing the chunk table when the tail
// chunk is full. Writer-only; the swapped-in table is a fresh slice so
// concurrent readers keep a consistent view of the one they loaded.
func (a *Arena) appendWord(w uint64) {
	cs := *a.chunks.Load()
	ci := int(a.wwords >> arenaChunkShift)
	if ci == len(cs) {
		grown := make([]*arenaChunk, len(cs)+1)
		copy(grown, cs)
		grown[len(cs)] = new(arenaChunk)
		a.chunks.Store(&grown)
		cs = grown
	}
	cs[ci][a.wwords&arenaChunkMask] = w
	a.wwords++
}

// NewReplayer returns an independent reader positioned at the start of the
// stream. Replayers are cheap (a few words of cursor state), single-
// goroutine like every Generator, and allocation-free on NextBatch once the
// arena covers the replayed prefix.
func (a *Arena) NewReplayer() *Replayer {
	return &Replayer{a: a}
}

// Replayer decodes an Arena back into the exact reference stream its
// source generator would have produced. It implements Generator, so it
// drops into the simulator wherever the live generator would go.
type Replayer struct {
	a      *Arena
	pos    uint64 // absolute word cursor
	refPos uint64 // references decoded so far
	prev   uint64 // decoder's previous address (delta base)
}

// Name implements Generator.
func (r *Replayer) Name() string { return r.a.name }

// Next implements Generator.
func (r *Replayer) Next() Ref {
	var one [1]Ref
	r.NextBatch(one[:])
	return one[0]
}

// NextBatch implements Generator: a straight decode of len(buf) packed
// references into buf — no component dispatch, no RNG draws. When the
// frozen prefix runs out the arena is extended (ahead, to amortise the
// writer lock) before decoding resumes.
func (r *Replayer) NextBatch(buf []Ref) {
	need := r.refPos + uint64(len(buf))
	if need > r.a.Refs() {
		r.a.Extend(need + arenaExtendAhead)
	}
	cs := *r.a.chunks.Load()
	pos, prev := r.pos, r.prev
	for i := range buf {
		w := cs[pos>>arenaChunkShift][pos&arenaChunkMask]
		pos++
		if (w>>1)&packGapMask == packGapMask {
			// Escape record: full address, then gap+write.
			addr := cs[pos>>arenaChunkShift][pos&arenaChunkMask]
			pos++
			gw := cs[pos>>arenaChunkShift][pos&arenaChunkMask]
			pos++
			buf[i] = Ref{Addr: addr, Write: gw&1 != 0, Gap: int32(uint32(gw >> 1))}
			prev = addr
			continue
		}
		zz := w >> (packGapBits + 1)
		prev += uint64(int64(zz>>1) ^ -int64(zz&1))
		buf[i] = Ref{Addr: prev, Write: w&1 != 0, Gap: int32((w >> 1) & packGapMask)}
	}
	r.pos, r.prev, r.refPos = pos, prev, need
}

// ArenaStore is a persistent tier beneath an ArenaCache: chunk files keyed
// by the cache's stream keys, surviving the process (see
// internal/trace/store for the mmap-backed implementation). Load returns
// the stored arena for key, or nil on any miss — absent file, corruption,
// codec-version mismatch — in which case the cache falls back to live
// synthesis; src is consumed by the returned arena exactly as NewArena
// would, continuing the stream past the stored prefix. Save persists a's
// current frozen prefix under key, atomically with respect to concurrent
// readers in other processes. Implementations must be safe for concurrent
// use.
type ArenaStore interface {
	Load(key string, src Generator) *Arena
	Save(key string, a *Arena) error
}

// ArenaCache memoises arenas under a memory budget. Get is singleflight
// per key: concurrent callers for the same stream share one arena (and
// therefore one generation pass). When the packed bytes held by cached
// arenas exceed the budget, cold arenas are evicted least-recently-used
// first; replayers already holding an evicted arena keep working — eviction
// only drops the cache's reference, so the next request for that stream
// regenerates from scratch.
//
// With a persistent store attached (SetStore) the cache becomes the
// in-memory tier of a two-level hierarchy: Get reads through to the store
// on a memory miss, eviction writes a dirty arena behind before dropping
// it, and FlushStore persists everything that grew since its last save —
// so a later process replays the streams this one synthesised.
type ArenaCache struct {
	mu      sync.Mutex
	max     int64
	tick    uint64
	entries map[string]*arenaCacheEntry
	store   ArenaStore
	// saved tracks, per key, the reference count already persisted, so
	// flushes and eviction write-behinds only touch arenas that grew.
	saved map[string]uint64
}

type arenaCacheEntry struct {
	a       *Arena
	lastUse uint64
}

// NewArenaCache builds a cache bounded to maxBytes of packed stream data
// (enforced at acquisition time; an arena growing between acquisitions can
// overshoot transiently). maxBytes <= 0 means unbounded.
func NewArenaCache(maxBytes int64) *ArenaCache {
	return &ArenaCache{max: maxBytes, entries: map[string]*arenaCacheEntry{}, saved: map[string]uint64{}}
}

// SetStore attaches a persistent tier. The first store wins: runners
// sharing one pool-wide cache may race to attach (possibly with different
// roots), and swapping stores mid-flight would split the dirty-tracking
// state across directories. Attaching nil is a no-op.
func (c *ArenaCache) SetStore(s ArenaStore) {
	if s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == nil {
		c.store = s
	}
}

// Store returns the attached persistent tier, nil when none.
func (c *ArenaCache) Store() ArenaStore {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// FlushStore persists every cached arena whose frozen prefix grew since it
// was last saved (write-behind). A no-op without a store. Call it when a
// batch of runs completes — the CLI flushes once per invocation — rather
// than per run: arenas extend lazily throughout a run, so flushing early
// just rewrites files the next flush replaces. Returns the first save
// error; later arenas are still attempted.
func (c *ArenaCache) FlushStore() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.store == nil {
		return nil
	}
	var first error
	for key, e := range c.entries {
		refs := e.a.Refs()
		if refs <= c.saved[key] {
			continue
		}
		if err := c.store.Save(key, e.a); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		c.saved[key] = refs
	}
	return first
}

// MaxBytes returns the current byte budget (<= 0 means unbounded).
func (c *ArenaCache) MaxBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

// Raise lifts the byte budget to maxBytes when that is more permissive than
// the current one (maxBytes <= 0, unbounded, wins over any bound). Budgets
// never shrink: lowering the cap mid-run would evict arenas that concurrent
// runs sharing the cache are still replaying and extending, throwing away
// their generation passes and re-paying them on the next Get. Callers that
// share one cache under different configured budgets therefore operate
// under the union of their demands.
func (c *ArenaCache) Raise(maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 {
		return // already unbounded
	}
	if maxBytes <= 0 || maxBytes > c.max {
		c.max = maxBytes
	}
}

// Get returns the arena cached under key, wrapping src into a new one on
// miss. key must uniquely determine src's stream: two generators producing
// different streams must never share a key. src is consumed only when the
// key misses; on a hit it is simply discarded. With a store attached, a
// memory miss first reads through to the persistent tier — a stored arena
// adopts its mapped prefix with zero decode, and src only synthesises
// whatever a run demands beyond it.
func (c *ArenaCache) Get(key string, src Generator) *Arena {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	e, ok := c.entries[key]
	if !ok {
		var a *Arena
		if c.store != nil {
			if a = c.store.Load(key, src); a != nil {
				c.saved[key] = a.Refs()
			}
		}
		if a == nil {
			a = NewArena(src)
		}
		e = &arenaCacheEntry{a: a}
		c.entries[key] = e
	}
	e.lastUse = c.tick
	c.evict(e)
	return e.a
}

// evict drops least-recently-used entries (never keep, which the caller is
// about to use) until the cached packed bytes fit the budget. With a store
// attached, a dirty arena is written behind before it is dropped, so
// eviction costs one file write instead of a future regeneration pass. A
// failed write-behind is dropped here (the store counts it) and costs that
// regeneration pass after all. Called with the lock held.
func (c *ArenaCache) evict(keep *arenaCacheEntry) {
	if c.max <= 0 {
		return
	}
	for len(c.entries) > 1 && c.bytes() > c.max {
		var coldKey string
		var cold *arenaCacheEntry
		for k, e := range c.entries {
			if e == keep {
				continue
			}
			if cold == nil || e.lastUse < cold.lastUse {
				coldKey, cold = k, e
			}
		}
		if cold == nil {
			return
		}
		if c.store != nil {
			if refs := cold.a.Refs(); refs > c.saved[coldKey] {
				if c.store.Save(coldKey, cold.a) == nil {
					c.saved[coldKey] = refs
				}
			}
		}
		delete(c.entries, coldKey)
	}
}

// bytes sums the packed storage of every cached arena. Lock held.
func (c *ArenaCache) bytes() int64 {
	var n int64
	for _, e := range c.entries {
		n += e.a.Bytes()
	}
	return n
}

// Bytes returns the packed storage currently held by cached arenas.
func (c *ArenaCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes()
}

// Len returns the number of cached arenas.
func (c *ArenaCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
