package util

import (
	"errors"
	"sync"
)

// Fanout routes one batch of keys across hash shards: it groups the
// batch's positions by the shard ShardOf assigns each key and runs a
// per-shard operation over every group. It owns the reusable group and
// error buffers, so a session keeps one Fanout and grouping allocates
// nothing in the steady state. It is the only place a batch is grouped by
// shard; core's table sessions and kv's shard router both use it. Not
// safe for concurrent use.
type Fanout struct {
	groups [][]int
	errs   []error
	run    []int
}

// Run calls op(shard, group) over the positions of keys that idxs selects
// (nil: every position), where group lists, in caller order, positions
// whose key shard owns. op must not retain group. The schedule is:
//
//   - ordered (reads under a blocking staleness bound, which acquire
//     tokens that must keep a global order): serially, over maximal runs
//     of consecutive positions owned by one shard, in caller order;
//   - fewer than BatchFanoutMin positions, or one shard: serially, one
//     call per non-empty shard group, because a goroutine per shard costs
//     more than the handful of operations it would overlap;
//   - otherwise: one goroutine per non-empty shard group, so within one
//     Run each shard is still driven by a single goroutine.
//
// The first error by shard order (caller order when ordered) is returned.
func (f *Fanout) Run(keys []uint64, idxs []int, shards int, ordered bool, op func(shard int, group []int) error) error {
	n := len(keys)
	if idxs != nil {
		n = len(idxs)
	}
	if len(f.groups) != shards {
		f.groups = make([][]int, shards)
		f.errs = make([]error, shards)
	}
	for sh := range f.groups {
		f.groups[sh] = f.groups[sh][:0]
	}
	f.run = f.run[:0]
	cur := 0
	for j := 0; j < n; j++ {
		i := j
		if idxs != nil {
			i = idxs[j]
		}
		sh := ShardOf(keys[i], shards)
		if !ordered {
			f.groups[sh] = append(f.groups[sh], i)
			continue
		}
		if sh != cur && len(f.run) > 0 {
			if err := op(cur, f.run); err != nil {
				return err
			}
			f.run = f.run[:0]
		}
		cur = sh
		f.run = append(f.run, i)
	}
	if ordered {
		if len(f.run) == 0 {
			return nil
		}
		return op(cur, f.run)
	}
	if n < BatchFanoutMin || shards == 1 {
		for sh, g := range f.groups {
			if len(g) == 0 {
				continue
			}
			if err := op(sh, g); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for sh, g := range f.groups {
		f.errs[sh] = nil
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, g []int) {
			defer wg.Done()
			f.errs[sh] = op(sh, g)
		}(sh, g)
	}
	wg.Wait()
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Parallel runs fn(i) for every i in [0, n), each in its own goroutine,
// and returns their errors joined (nil when all succeed). The shard
// layers use it for whole-store operations such as checkpoints.
func Parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
