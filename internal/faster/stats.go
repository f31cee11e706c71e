package faster

import "sync/atomic"

// Stats holds the store's shared counters: the ones bumped off the
// per-key hot path (disk reads, appends, flushes), updated with atomics.
// The per-operation counters live in slotCounters instead.
type Stats struct {
	DiskReads        atomic.Int64
	RCUAppends       atomic.Int64
	PrefetchCopies   atomic.Int64
	AbandonedAppends atomic.Int64
	StalenessWaits   atomic.Int64
	FlushedPages     atomic.Int64
	BytesFlushed     atomic.Int64
	GroupCommits     atomic.Int64 // multi-page flush writes (group commit)
	FlushPaceStalls  atomic.Int64 // pacing sleeps taken between flush writes
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Gets             int64
	Puts             int64
	RMWs             int64
	Deletes          int64
	MemHits          int64
	DiskReads        int64
	InPlaceUpdates   int64
	RCUAppends       int64
	PrefetchCopies   int64
	AbandonedAppends int64
	StalenessWaits   int64
	FlushedPages     int64
	BytesFlushed     int64
	GroupCommits     int64
	FlushPaceStalls  int64
}

// opCounts are the per-operation counters a session accumulates during
// one call, in plain fields, before publishing them to its slot.
type opCounts struct {
	gets, puts, rmws, deletes, memHits, inPlaceUpdates int64
}

// slotCounters are one epoch slot's published operation counters, padded
// to a cache line. Only the session holding the slot writes them — with a
// load and a store, not a locked add, since there is no other writer — so
// sessions on different cores never contend for a counter line. The
// counters are never reset: a session reusing a slot continues its
// predecessor's totals, so the sum over slots stays exact.
type slotCounters struct {
	gets, puts, rmws, deletes, memHits, inPlaceUpdates atomic.Int64
	_                                                  [2]uint64
}

// publish adds c to the slot's counters and zeroes c.
func (sc *slotCounters) publish(c *opCounts) {
	addOwned(&sc.gets, c.gets)
	addOwned(&sc.puts, c.puts)
	addOwned(&sc.rmws, c.rmws)
	addOwned(&sc.deletes, c.deletes)
	addOwned(&sc.memHits, c.memHits)
	addOwned(&sc.inPlaceUpdates, c.inPlaceUpdates)
	*c = opCounts{}
}

// addOwned adds n to a counter that has a single writer.
func addOwned(dst *atomic.Int64, n int64) {
	if n != 0 {
		dst.Store(dst.Load() + n)
	}
}

func (s *Stats) snapshot(slots []slotCounters) StatsSnapshot {
	snap := StatsSnapshot{
		DiskReads:        s.DiskReads.Load(),
		RCUAppends:       s.RCUAppends.Load(),
		PrefetchCopies:   s.PrefetchCopies.Load(),
		AbandonedAppends: s.AbandonedAppends.Load(),
		StalenessWaits:   s.StalenessWaits.Load(),
		FlushedPages:     s.FlushedPages.Load(),
		BytesFlushed:     s.BytesFlushed.Load(),
		GroupCommits:     s.GroupCommits.Load(),
		FlushPaceStalls:  s.FlushPaceStalls.Load(),
	}
	for i := range slots {
		sc := &slots[i]
		snap.Gets += sc.gets.Load()
		snap.Puts += sc.puts.Load()
		snap.RMWs += sc.rmws.Load()
		snap.Deletes += sc.deletes.Load()
		snap.MemHits += sc.memHits.Load()
		snap.InPlaceUpdates += sc.inPlaceUpdates.Load()
	}
	return snap
}

// Add returns the element-wise sum a+b (for merging per-shard snapshots
// into one top-level view).
func (a StatsSnapshot) Add(b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Gets:             a.Gets + b.Gets,
		Puts:             a.Puts + b.Puts,
		RMWs:             a.RMWs + b.RMWs,
		Deletes:          a.Deletes + b.Deletes,
		MemHits:          a.MemHits + b.MemHits,
		DiskReads:        a.DiskReads + b.DiskReads,
		InPlaceUpdates:   a.InPlaceUpdates + b.InPlaceUpdates,
		RCUAppends:       a.RCUAppends + b.RCUAppends,
		PrefetchCopies:   a.PrefetchCopies + b.PrefetchCopies,
		AbandonedAppends: a.AbandonedAppends + b.AbandonedAppends,
		StalenessWaits:   a.StalenessWaits + b.StalenessWaits,
		FlushedPages:     a.FlushedPages + b.FlushedPages,
		BytesFlushed:     a.BytesFlushed + b.BytesFlushed,
		GroupCommits:     a.GroupCommits + b.GroupCommits,
		FlushPaceStalls:  a.FlushPaceStalls + b.FlushPaceStalls,
	}
}

// Sub returns the element-wise difference a-b (for interval measurements).
func (a StatsSnapshot) Sub(b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Gets:             a.Gets - b.Gets,
		Puts:             a.Puts - b.Puts,
		RMWs:             a.RMWs - b.RMWs,
		Deletes:          a.Deletes - b.Deletes,
		MemHits:          a.MemHits - b.MemHits,
		DiskReads:        a.DiskReads - b.DiskReads,
		InPlaceUpdates:   a.InPlaceUpdates - b.InPlaceUpdates,
		RCUAppends:       a.RCUAppends - b.RCUAppends,
		PrefetchCopies:   a.PrefetchCopies - b.PrefetchCopies,
		AbandonedAppends: a.AbandonedAppends - b.AbandonedAppends,
		StalenessWaits:   a.StalenessWaits - b.StalenessWaits,
		FlushedPages:     a.FlushedPages - b.FlushedPages,
		BytesFlushed:     a.BytesFlushed - b.BytesFlushed,
		GroupCommits:     a.GroupCommits - b.GroupCommits,
		FlushPaceStalls:  a.FlushPaceStalls - b.FlushPaceStalls,
	}
}
