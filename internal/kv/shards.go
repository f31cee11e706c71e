package kv

import (
	"context"
	"errors"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
)

// ShardedConfig sizes a hash-partitioned store set. The memory and
// expected-key budgets are totals: S shards together use the same
// resources one unsharded store would, so 1-vs-N comparisons are fair.
type ShardedConfig struct {
	// Dir is the root directory. One shard stores directly in it; more
	// get shard-NNN subdirectories. The shard count is recorded in a
	// metadata file and a mismatched reopen is refused.
	Dir string
	// Shards is the partition count (0 and 1 both mean unsharded).
	Shards int
	// ValueSize is the fixed value payload in bytes.
	ValueSize int
	// RecordsPerPage is the log page granularity (default 256).
	RecordsPerPage int
	// MemoryBytes is the total in-memory buffer budget across all shards.
	MemoryBytes int64
	// MutableFraction is the share of each shard's pages accepting
	// in-place updates (default 0.5).
	MutableFraction float64
	// ExpectedKeys sizes the hash indexes (total across all shards).
	ExpectedKeys uint64
	// StalenessBound configures the vector clock (see faster.Config).
	StalenessBound int64
	// SyncWrites fsyncs every flushed log page.
	SyncWrites bool
	// FlushPace paces each shard's background flusher (see
	// faster.Config.FlushPace); zero disables pacing.
	FlushPace time.Duration
}

// OpenFasterShards opens cfg.Shards FASTER stores under cfg.Dir and wraps
// them as one Store routing by util.ShardOf — the one place the
// benchmarks and CLIs derive a sharded store set from a total budget, so
// the split policy and the shard-count guard cannot drift between them.
func OpenFasterShards(cfg ShardedConfig, name string) (Store, error) {
	cfg.Shards = max(cfg.Shards, 1)
	base := faster.Config{
		ValueSize:      cfg.ValueSize,
		RecordsPerPage: cfg.RecordsPerPage,
		StalenessBound: cfg.StalenessBound,
		SyncWrites:     cfg.SyncWrites,
		FlushPace:      cfg.FlushPace,
	}
	if base.RecordsPerPage == 0 {
		base.RecordsPerPage = 256
	}
	base.SplitBudget(cfg.Shards, cfg.MemoryBytes, cfg.MutableFraction, cfg.ExpectedKeys)
	stores, err := util.OpenShards(cfg.Dir, cfg.Shards, func(dir string) (*faster.Store, error) {
		c := base
		c.Dir = dir
		return faster.Open(c)
	})
	if err != nil {
		return nil, err
	}
	return WrapFasterShards(stores, name), nil
}

// shardEngine is one shard's store as the router drives it.
type shardEngine interface {
	session() (engineSession, error)
	// blocking reports whether clocked reads can wait under the current
	// staleness bound, so a batch must keep the caller's key order.
	blocking() bool
	Checkpoint() error
	Stats() faster.StatsSnapshot
	Close() error
}

// engineSession is one shard's session as the router drives it. The batch
// methods have the hybrid log's index-selected shape: idxs picks the
// positions of keys the call covers (nil: all of them), each value lands
// at its key's position in vals and found, and a missing key's value slot
// is zeroed. *faster.Session satisfies it as it is; liftedSession lifts
// the clock-free engines onto it.
type engineSession interface {
	Get(key uint64, dst []byte) (bool, error)
	GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error)
	Peek(key uint64, dst []byte) (bool, error)
	Put(key uint64, val []byte) error
	Delete(key uint64) error
	Prefetch(key uint64) (bool, error)
	GetBatch(ctx context.Context, keys []uint64, idxs []int, vals []byte, found []bool) error
	PutBatch(keys []uint64, idxs []int, vals []byte) error
	Close()
}

// shardStore is the one shard router: it hash-partitions the key space
// across shard engines by util.ShardOf. A single shard is the same router with every batch passed
// straight through, so 1-vs-N comparisons measure sharding alone, not
// adapter overhead. It carries the Store surface every engine shares
// (Checkpointer, StatsReporter, Sharded); fasterStore and clockFreeStore
// embed it to add their engine family's extensions.
type shardStore struct {
	shards    []shardEngine
	name      string
	valueSize int
}

func (w *shardStore) NewSession() (Session, error) {
	ss := make([]engineSession, len(w.shards))
	for i, sh := range w.shards {
		s, err := sh.session()
		if err != nil {
			for _, prev := range ss[:i] {
				prev.Close()
			}
			return nil, err
		}
		ss[i] = s
	}
	return &shardSession{ss: ss, shard0: w.shards[0]}, nil
}

func (w *shardStore) ValueSize() int { return w.valueSize }
func (w *shardStore) Name() string   { return w.name }
func (w *shardStore) Shards() int    { return len(w.shards) }

func (w *shardStore) Close() error {
	errs := make([]error, len(w.shards))
	for i, sh := range w.shards {
		errs[i] = sh.Close()
	}
	return errors.Join(errs...)
}

// Checkpoint makes every shard durable, in parallel.
func (w *shardStore) Checkpoint() error {
	return util.Parallel(len(w.shards), func(i int) error { return w.shards[i].Checkpoint() })
}

// Stats returns the element-wise sum of every shard's counters.
func (w *shardStore) Stats() faster.StatsSnapshot {
	var sum faster.StatsSnapshot
	for _, sh := range w.shards {
		sum = sum.Add(sh.Stats())
	}
	return sum
}

// shardSession holds one engine session per shard. Point operations route
// to the key's shard; a batch reaches each shard as one native batch call
// over that shard's group, scheduled by util.Fanout. Within one call each
// shard's session is driven by exactly one goroutine, preserving the
// engines' single-goroutine session contract.
type shardSession struct {
	ss     []engineSession
	shard0 shardEngine // representative for the staleness bound all shards share
	fan    util.Fanout
}

func (se *shardSession) route(key uint64) engineSession {
	return se.ss[util.ShardOf(key, len(se.ss))]
}

func (se *shardSession) Get(key uint64, dst []byte) (bool, error) {
	return se.route(key).Get(key, dst)
}

// GetCtx implements CtxSession: a clocked read stalled on the staleness
// bound gives up with ctx.Err() when ctx ends.
func (se *shardSession) GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error) {
	return se.route(key).GetCtx(ctx, key, dst)
}

// Peek implements PeekSession.
func (se *shardSession) Peek(key uint64, dst []byte) (bool, error) {
	return se.route(key).Peek(key, dst)
}

func (se *shardSession) Put(key uint64, val []byte) error  { return se.route(key).Put(key, val) }
func (se *shardSession) Delete(key uint64) error           { return se.route(key).Delete(key) }
func (se *shardSession) Prefetch(key uint64) (bool, error) { return se.route(key).Prefetch(key) }

func (se *shardSession) Close() {
	for _, s := range se.ss {
		s.Close()
	}
}

// GetBatch implements BatchSession.
func (se *shardSession) GetBatch(keys []uint64, vals []byte, found []bool) error {
	return se.GetBatchCtx(context.Background(), keys, vals, found)
}

// GetBatchCtx implements CtxBatchSession: ctx is checked on every clocked
// read, so a batch stalled on the staleness bound gives up at the
// caller's deadline. Under a blocking bound (BSP or finite SSP) clocked
// reads are token acquisitions that must keep the caller's key order, or
// two sessions' parallel per-shard groups could each hold a token the
// other is blocked on, so the batch then runs serially in caller order.
func (se *shardSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	if len(se.ss) == 1 {
		return se.ss[0].GetBatch(ctx, keys, nil, vals, found)
	}
	return se.fan.Run(keys, nil, len(se.ss), se.shard0.blocking(), func(sh int, idxs []int) error {
		return se.ss[sh].GetBatch(ctx, keys, idxs, vals, found)
	})
}

// PutBatch implements BatchSession. Puts never wait on the staleness
// bound, so shard groups always fan out.
func (se *shardSession) PutBatch(keys []uint64, vals []byte) error {
	if len(se.ss) == 1 {
		return se.ss[0].PutBatch(keys, nil, vals)
	}
	return se.fan.Run(keys, nil, len(se.ss), false, func(sh int, idxs []int) error {
		return se.ss[sh].PutBatch(keys, idxs, vals)
	})
}
