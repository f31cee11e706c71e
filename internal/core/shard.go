package core

import (
	"fmt"
	"path/filepath"
	"sync"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
)

// The shard router hash-partitions the key space across S independent
// FASTER store instances, each with its own hybrid log, hash index, epoch
// domain, and background flusher. Single-key operations route to one shard;
// batch operations group keys by shard and fan the per-shard groups out in
// parallel, so one session's GetBatch/PutBatch overlaps log allocation,
// disk reads, and flush waits across shards instead of serializing them
// behind a single log tail.
//
// Shard placement uses util.ShardOf, which mixes with a constant distinct
// from the in-shard index hash so partitioning and bucket placement stay
// uncorrelated.

// shardDirs returns the per-shard storage directories under dir. A
// single-shard table stores directly in dir, byte-compatible with tables
// created before sharding existed.
func shardDirs(dir string, shards int) []string {
	if shards <= 1 {
		return []string{dir}
	}
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
	}
	return dirs
}

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

// groupByShard buckets indices of keys by owning shard into the session's
// reusable group buffers. idxs selects a subset of key positions (the
// hot-tier miss set); nil means every key.
func (s *Session) groupByShard(keys []uint64, idxs []int) [][]int {
	n := len(s.t.stores)
	if s.groups == nil {
		s.groups = make([][]int, n)
	}
	for i := range s.groups {
		s.groups[i] = s.groups[i][:0]
	}
	if idxs == nil {
		for i, k := range keys {
			sh := util.ShardOf(k, n)
			s.groups[sh] = append(s.groups[sh], i)
		}
		return s.groups
	}
	for _, i := range idxs {
		sh := util.ShardOf(keys[i], n)
		s.groups[sh] = append(s.groups[sh], i)
	}
	return s.groups
}

// fanOut runs op over each non-empty shard group in its own goroutine and
// returns the first error by shard order. op receives the shard index and
// the indices (into the caller's key slice) that shard owns; within one
// fan-out each shard's faster session and scratch buffer are touched only
// by that shard's goroutine, preserving the session's single-goroutine
// contract per shard.
func (s *Session) fanOut(groups [][]int, op func(shard int, idxs []int) error) error {
	var wg sync.WaitGroup
	if s.errs == nil {
		s.errs = make([]error, len(groups))
	}
	errs := s.errs
	for sh, idxs := range groups {
		errs[sh] = nil
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			errs[sh] = op(sh, idxs)
		}(sh, idxs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
