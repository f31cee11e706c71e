package core

import (
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
)

// The shard router hash-partitions the key space across S independent
// FASTER store instances, each with its own hybrid log, hash index, epoch
// domain, and background flusher. Single-key operations route to one shard;
// batch operations group keys by shard and fan the per-shard groups out in
// parallel through util.Fanout (the same schedule kv's shard router
// uses), so one session's GetBatch/PutBatch overlaps log allocation,
// disk reads, and flush waits across shards instead of serializing them
// behind a single log tail.
//
// Shard placement uses util.ShardOf, which mixes with a constant distinct
// from the in-shard index hash so partitioning and bucket placement stay
// uncorrelated.

// shardOf returns the shard index owning key.
func (t *Table) shardOf(key uint64) int { return util.ShardOf(key, len(t.stores)) }

// Shards returns the number of hash partitions backing the table.
func (t *Table) Shards() int { return len(t.stores) }

// Stores exposes every shard's engine, in shard order (benchmarks and
// diagnostics).
func (t *Table) Stores() []*faster.Store { return t.stores }

// StoreStats returns the element-wise sum of every shard's operation
// counters: the single-store view callers of Stats expect, regardless of
// the shard count.
func (t *Table) StoreStats() faster.StatsSnapshot {
	var sum faster.StatsSnapshot
	for _, st := range t.stores {
		sum = sum.Add(st.Stats())
	}
	return sum
}
