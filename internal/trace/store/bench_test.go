package store

import (
	"testing"

	"ascc/internal/trace"
)

// BenchmarkStoreThroughput compares the three ways a reference stream can
// reach a fresh process: live generation (the cost every cold process
// pays), replay from a store-loaded mmap'd arena (what the persistent
// tier makes possible), and the load itself (open + map + validate,
// amortised over the refs it unlocks). store-replay vs live is the
// headline ratio DESIGN.md §14 records: the synthesis work a warm store
// deletes from every subsequent run, sweep and CI job.
func BenchmarkStoreThroughput(b *testing.B) {
	const (
		batch   = 256
		prefill = 1 << 21
	)
	const key = "bench/0/store-test/9/8"

	b.Run("live", func(b *testing.B) {
		g := testGen(9)
		buf := make([]trace.Ref, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.NextBatch(buf)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "refs/s")
	})

	dir := b.TempDir()
	seedStore := New(dir)
	a := trace.NewArena(testGen(9))
	a.Extend(prefill + batch)
	if err := seedStore.Save(key, a); err != nil {
		b.Fatal(err)
	}

	b.Run("store-replay", func(b *testing.B) {
		// One load, then pure decode over the mapped payload, rewinding
		// with fresh replayers at fixed memory — the steady state of a
		// warm-store run, directly comparable to the in-memory "replay"
		// case of BenchmarkStreamThroughput.
		s := New(dir)
		defer s.Close()
		la := s.Load(key, testGen(9))
		if la == nil {
			b.Fatalf("load missed (stats %+v)", s.Stats())
		}
		rp := la.NewReplayer()
		done := uint64(0)
		buf := make([]trace.Ref, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if done+batch > prefill {
				rp = la.NewReplayer()
				done = 0
			}
			rp.NextBatch(buf)
			done += batch
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "refs/s")
	})

	b.Run("load", func(b *testing.B) {
		// Full open+mmap+validate per iteration, reported as refs/s over
		// the refs each load makes available: even counting validation
		// (checksum + structural walk over every word), a load delivers
		// refs orders of magnitude faster than synthesising them.
		refs := a.Refs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := New(dir)
			if la := s.Load(key, testGen(9)); la == nil {
				b.Fatalf("load missed (stats %+v)", s.Stats())
			}
			s.Close()
		}
		b.ReportMetric(float64(b.N)*float64(refs)/b.Elapsed().Seconds(), "refs/s")
	})
}
