package kv

import (
	"context"
	"sync"

	"github.com/llm-db/mlkv-go/internal/bptree"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/lsm"
	"github.com/llm-db/mlkv-go/internal/util"
)

// WrapLSM adapts an LSM store to the Store interface, with the full
// optional surface (BatchSession/PeekSession/Checkpointer/StatsReporter)
// lifted onto it — see liftLSM in engines.go.
func WrapLSM(s *lsm.Store) Store { return liftLSM(s, s.Name()) }

// WrapBPTree adapts a B+tree store to the Store interface, with the full
// optional surface lifted onto it — see liftBPTree in engines.go.
func WrapBPTree(s *bptree.Store) Store { return liftBPTree(s, s.Name()) }

// WrapFaster adapts a FASTER store to the Store interface (used by the
// YCSB harness, which works on raw bytes).
func WrapFaster(s *faster.Store, name string) Store { return fkStore{s: s, name: name} }

type fkStore struct {
	s    *faster.Store
	name string
}

func (w fkStore) NewSession() (Session, error) {
	s, err := w.s.NewSession()
	if err != nil {
		return nil, err
	}
	return fkSession{s}, nil
}
func (w fkStore) ValueSize() int              { return w.s.ValueSize() }
func (w fkStore) Name() string                { return w.name }
func (w fkStore) Close() error                { return w.s.Close() }
func (w fkStore) Checkpoint() error           { return w.s.Checkpoint() }
func (w fkStore) Stats() faster.StatsSnapshot { return w.s.Stats() }
func (w fkStore) Shards() int                 { return 1 }
func (w fkStore) StalenessBound() int64       { return w.s.StalenessBound() }
func (w fkStore) SetStalenessBound(b int64)   { w.s.SetStalenessBound(b) }

type fkSession struct{ s *faster.Session }

func (se fkSession) Get(key uint64, dst []byte) (bool, error) { return se.s.Get(key, dst) }

// GetCtx implements CtxSession: a clocked read stalled on the staleness
// bound gives up with ctx.Err() when ctx ends.
func (se fkSession) GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error) {
	return se.s.GetCtx(ctx, key, dst)
}
func (se fkSession) Put(key uint64, val []byte) error          { return se.s.Put(key, val) }
func (se fkSession) Delete(key uint64) error                   { return se.s.Delete(key) }
func (se fkSession) Prefetch(key uint64) (bool, error)         { return se.s.Prefetch(key) }
func (se fkSession) Peek(key uint64, dst []byte) (bool, error) { return se.s.Peek(key, dst) }
func (se fkSession) Close()                                    { se.s.Close() }

// GetBatch implements BatchSession: the whole batch is one group of the
// session's native batch read.
func (se fkSession) GetBatch(keys []uint64, vals []byte, found []bool) error {
	return se.s.GetBatch(context.Background(), keys, nil, vals, found)
}

// GetBatchCtx implements CtxBatchSession. One session reads the keys in
// caller order, so even under a blocking bound the batch acquires tokens
// in the same order as a per-key loop.
func (se fkSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	return se.s.GetBatch(ctx, keys, nil, vals, found)
}

// PutBatch implements BatchSession.
func (se fkSession) PutBatch(keys []uint64, vals []byte) error {
	return se.s.PutBatch(keys, nil, vals)
}

// WrapFasterShards adapts a hash-partitioned set of FASTER stores to the
// Store interface: every operation routes to the shard util.ShardOf
// assigns its key, the same placement the core shard router uses. The
// stores must share one ValueSize. A single store degenerates to
// WrapFaster, so 1-vs-N comparisons measure sharding alone, not adapter
// overhead.
func WrapFasterShards(stores []*faster.Store, name string) Store {
	if len(stores) == 1 {
		return WrapFaster(stores[0], name)
	}
	return fkShardStore{stores: stores, name: name}
}

type fkShardStore struct {
	stores []*faster.Store
	name   string
}

func (w fkShardStore) NewSession() (Session, error) {
	ss := make([]*faster.Session, len(w.stores))
	for i, st := range w.stores {
		s, err := st.NewSession()
		if err != nil {
			for _, prev := range ss[:i] {
				prev.Close()
			}
			return nil, err
		}
		ss[i] = s
	}
	return &fkShardSession{ss: ss, groups: make([][]int, len(ss)), st0: w.stores[0]}, nil
}

func (w fkShardStore) ValueSize() int { return w.stores[0].ValueSize() }
func (w fkShardStore) Name() string   { return w.name }
func (w fkShardStore) Shards() int    { return len(w.stores) }

// StalenessBound reports the bound all shards share.
func (w fkShardStore) StalenessBound() int64 { return w.stores[0].StalenessBound() }

// SetStalenessBound changes the bound on every shard.
func (w fkShardStore) SetStalenessBound(b int64) {
	for _, st := range w.stores {
		st.SetStalenessBound(b)
	}
}

func (w fkShardStore) Close() error {
	var first error
	for _, st := range w.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint makes every shard durable, in parallel; the first error by
// shard order is returned.
func (w fkShardStore) Checkpoint() error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.stores))
	for i, st := range w.stores {
		wg.Add(1)
		go func(i int, st *faster.Store) {
			defer wg.Done()
			errs[i] = st.Checkpoint()
		}(i, st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the element-wise sum of every shard's counters.
func (w fkShardStore) Stats() faster.StatsSnapshot {
	var sum faster.StatsSnapshot
	for _, st := range w.stores {
		sum = sum.Add(st.Stats())
	}
	return sum
}

type fkShardSession struct {
	ss     []*faster.Session
	groups [][]int       // reusable per-shard index groups for batches
	errs   []error       // reusable per-shard fan-out results
	st0    *faster.Store // representative for the shared staleness bound
}

func (se *fkShardSession) route(key uint64) *faster.Session {
	return se.ss[util.ShardOf(key, len(se.ss))]
}

func (se *fkShardSession) Get(key uint64, dst []byte) (bool, error) {
	return se.route(key).Get(key, dst)
}

// GetCtx implements CtxSession (see fkSession.GetCtx).
func (se *fkShardSession) GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error) {
	return se.route(key).GetCtx(ctx, key, dst)
}
func (se *fkShardSession) Put(key uint64, val []byte) error  { return se.route(key).Put(key, val) }
func (se *fkShardSession) Delete(key uint64) error           { return se.route(key).Delete(key) }
func (se *fkShardSession) Prefetch(key uint64) (bool, error) { return se.route(key).Prefetch(key) }
func (se *fkShardSession) Peek(key uint64, dst []byte) (bool, error) {
	return se.route(key).Peek(key, dst)
}
func (se *fkShardSession) Close() {
	for _, s := range se.ss {
		s.Close()
	}
}

// GetBatch implements BatchSession: keys group by owning shard and the
// per-shard groups run in parallel goroutines. Within one call each
// shard's faster session is driven by exactly one goroutine, preserving
// the engine's single-goroutine session contract.
func (se *fkShardSession) GetBatch(keys []uint64, vals []byte, found []bool) error {
	return se.GetBatchCtx(context.Background(), keys, vals, found)
}

// GetBatchCtx implements CtxBatchSession: ctx is checked on every clocked
// read, so a batch stalled on the staleness bound gives up at the
// caller's deadline.
func (se *fkShardSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	if len(keys) == 0 {
		return nil
	}
	vs := len(vals) / len(keys)
	// Under a blocking staleness bound (BSP or finite SSP) clocked reads
	// are token acquisitions that must keep the caller's global key order,
	// or two sessions' parallel per-shard groups could each hold a token
	// the other is blocked on. Run the batch serially in caller order —
	// exactly what core.Session.GetBatch does for the same reason.
	if faster.BlockingBound(se.st0.StalenessBound()) {
		for i, k := range keys {
			slot := vals[i*vs : (i+1)*vs]
			ok, err := se.route(k).GetCtx(ctx, k, slot)
			if err != nil {
				return err
			}
			found[i] = ok
			if !ok {
				clear(slot)
			}
		}
		return nil
	}
	return se.fanOut(keys, func(sh int, idxs []int) error {
		return se.ss[sh].GetBatch(ctx, keys, idxs, vals, found)
	})
}

// PutBatch implements BatchSession with the same per-shard fan-out, each
// shard's group one native batch write.
func (se *fkShardSession) PutBatch(keys []uint64, vals []byte) error {
	if len(keys) == 0 {
		return nil
	}
	return se.fanOut(keys, func(sh int, idxs []int) error {
		return se.ss[sh].PutBatch(keys, idxs, vals)
	})
}

// fanOut groups the indices of keys by owning shard into the session's
// reusable group buffers and runs op over each non-empty group — serially
// for small batches, in one goroutine per shard otherwise. The first
// error by shard order is returned.
func (se *fkShardSession) fanOut(keys []uint64, op func(shard int, idxs []int) error) error {
	n := len(se.ss)
	groups := se.groups
	for i := range groups {
		groups[i] = groups[i][:0]
	}
	for i, k := range keys {
		sh := util.ShardOf(k, n)
		groups[sh] = append(groups[sh], i)
	}
	if len(keys) < util.BatchFanoutMin {
		for sh, idxs := range groups {
			if len(idxs) == 0 {
				continue
			}
			if err := op(sh, idxs); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	if se.errs == nil {
		se.errs = make([]error, n)
	}
	errs := se.errs
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
