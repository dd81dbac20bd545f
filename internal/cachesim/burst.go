package cachesim

import "ascc/internal/trace"

// BurstEvent is why ReadBurst stopped consuming references.
type BurstEvent uint8

const (
	// BurstBatchEnd: the batch cursor reached the end of the decoded
	// references. The caller refills the batch and re-enters the kernel.
	BurstBatchEnd BurstEvent = iota
	// BurstMiss: the reference at the cursor missed this cache. The kernel
	// consumed it — the set-level miss is counted and the instruction-gap
	// clock accounting done — and published the block and store flag; the
	// caller owes the below-L1 descent (L2, coherence, memory) and the
	// latency's clock contribution.
	BurstMiss
	// BurstUpgrade: a store hit a line whose state is not Modified. The
	// kernel consumed the reference as a normal hit (counted, promoted to
	// MRU) and published the block and way; the caller owes the
	// write-through upgrade and the line-state transition. The reference's
	// latency is 0, like every L1 hit.
	BurstUpgrade
	// BurstQuota: the just-consumed reference pushed instr to the quota or
	// beyond. The core's statistics are ready to freeze.
	BurstQuota
	// BurstFrontier: the just-consumed reference pushed clock to the limit
	// or beyond — the core crossed the frontier's runner-up and the caller
	// must rescan for the new minimum core.
	BurstFrontier
)

// String names the event (tests and debugging).
func (e BurstEvent) String() string {
	switch e {
	case BurstBatchEnd:
		return "batch-end"
	case BurstMiss:
		return "miss"
	case BurstUpgrade:
		return "upgrade"
	case BurstQuota:
		return "quota"
	case BurstFrontier:
		return "frontier"
	}
	return "BurstEvent(?)"
}

// ReadBurst consumes consecutive references from bt until one needs the
// hierarchy below this cache, then returns at that event. Per reference it
// runs Access (tag probe, set counters, MRU touch) and advances the
// deferred instruction/clock accounting; clock publication, CoreStats
// folding and all below-L1 work (demand descent, write-through upgrade,
// latency) belong to the caller. Read hits and stores to already-Modified
// lines are consumed without leaving the kernel; a miss or a store-upgrade
// consumes the reference's L1-level part and reports the remainder through
// block/way/write.
//
// The state exchange is deliberately all scalars: with events every ~1-2
// references on miss-heavy workloads, the call boundary is the kernel's
// per-reference overhead, and scalar arguments and results travel in
// registers under the Go ABI — the only memory store per call is the batch
// cursor. The parameters are the stepping bounds (quota on instructions,
// the frontier's runner-up clock as limit) and the running instr/clock;
// the results are the event, the advanced instr/clock, the number of
// references that hit (every consumed reference hit except a trailing
// BurstMiss, so total consumed is hits plus one on a miss), and the event
// reference's block, way (BurstUpgrade) and store flag (BurstMiss).
//
// Accounting contract (what keeps golden results bit-identical to per-ref
// stepping): for every consumed reference the kernel adds
// float64(gap+1)*baseCPI to clock — the same float additions in the same
// order as the per-reference loop performed them. References that stay in
// this cache have latency 0, whose per-ref step would further add
// 0.0*Overlap to a finite non-negative clock: the identity, so skipping it
// changes no bits. An event reference's latency contribution is added by
// the caller after the descent, exactly where the per-ref loop added it.
// Every geometry runs this one loop. DESIGN.md §11 records what the
// per-reference Access call costs against an inline 4-way loop: 5-11% of
// the 4-core mix's wall time, inside the run-to-run spread.
func (c *Cache) ReadBurst(bt *trace.Batch, shift uint, baseCPI float64, quota uint64, limit float64, instr uint64, clock float64) (ev BurstEvent, instrOut uint64, clockOut float64, hits uint64, block uint64, way int, write bool) {
	refs := bt.Refs
	cur := bt.Pos
	start := cur
	ev = BurstBatchEnd
	var evBlock uint64
	var evWay int
	var evWrite bool
	for cur < len(refs) {
		ref := refs[cur]
		blk := ref.Addr >> shift
		// A miss is still consumed: Access counted it, the instruction-gap
		// clock add lands below in stream order, and the below-L1
		// remainder is the caller's.
		w, hit := c.Access(blk)
		cur++
		n := uint64(ref.Gap) + 1
		instr += n
		clock += float64(n) * baseCPI
		if !hit {
			evBlock, evWrite = blk, ref.Write
			ev = BurstMiss
			break
		}
		if ref.Write && c.lines[int(blk&c.setMask)*c.stride+w].State != Modified {
			evBlock, evWay = blk, w
			ev = BurstUpgrade
			break
		}
		// Event checks run after the reference commits, quota before
		// frontier — the per-reference loop's exact order and priority.
		// Miss/upgrade references skip them: their below-L1 part is still
		// pending, so the caller applies the same checks after finishing
		// the reference.
		if instr >= quota {
			ev = BurstQuota
			break
		}
		if clock >= limit {
			ev = BurstFrontier
			break
		}
	}
	bt.Pos = cur
	// Every consumed reference hit the L1 except a trailing miss — at most
	// one miss is consumed per call, so the hit count is derived at exit
	// instead of maintained per reference.
	hits = uint64(cur - start)
	if ev == BurstMiss {
		hits--
	}
	return ev, instr, clock, hits, evBlock, evWay, evWrite
}
