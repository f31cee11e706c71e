package kv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/bptree"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/lsm"
	"github.com/llm-db/mlkv-go/internal/util"
)

// Engine names accepted across the public API, the wire protocol, and the
// server flags. "faster" is the canonical name of the hybrid-log engine;
// "mlkv" and "" alias it (whether its vector clock runs is the staleness
// bound's business, not the engine name's).
const (
	EngineFaster = "faster"
	EngineLSM    = "lsm"
	EngineBPTree = "bptree"
)

// NormalizeEngine maps an engine name (or alias, or "") to its canonical
// form, rejecting unknown names with the accepted set in the message.
func NormalizeEngine(engine string) (string, error) {
	switch strings.ToLower(engine) {
	case "", "mlkv", EngineFaster:
		return EngineFaster, nil
	case EngineLSM:
		return EngineLSM, nil
	case EngineBPTree:
		return EngineBPTree, nil
	}
	return "", fmt.Errorf("kv: unknown engine %q (want faster, lsm, or bptree)", engine)
}

// ClockFree reports whether the canonical engine name has no vector
// clock, so it can never honor a blocking staleness bound (BSP or finite
// SSP). Callers reject explicit blocking bounds on such engines up front
// rather than silently serving unbounded reads.
func ClockFree(engine string) bool { return engine == EngineLSM || engine == EngineBPTree }

// BatchCallReporter is an optional Store extension counting the native
// engine-level batch calls the store has issued. It is the measurement
// behind the batch-amplification regression gate: one session GetBatch
// through a sharded store must reach the engine as at most Shards calls,
// never one call per key.
type BatchCallReporter interface {
	// BatchCalls returns the cumulative engine-level batch read and batch
	// write call counts.
	BatchCalls() (gets, puts int64)
}

// engineSession is the native session surface the clock-free engines
// share (both *lsm.Session and *bptree.Session satisfy it), including the
// batch entry points the lifted adapter builds on.
type engineSession interface {
	Get(key uint64, dst []byte) (bool, error)
	Put(key uint64, val []byte) error
	Delete(key uint64) error
	Prefetch(key uint64) (bool, error)
	GetBatch(keys []uint64, vals []byte, found []bool) error
	PutBatch(keys []uint64, vals []byte) error
	Close()
}

// liftedStore adapts one clock-free engine store to the full optional
// surface the serving layer uses: batch sessions, Peek, Checkpoint, and
// merged stats, with operation counters kept at this layer (the engines
// themselves only count IO).
type liftedStore struct {
	name      string
	engine    string // canonical engine name
	valueSize int

	newSess    func() (engineSession, error)
	checkpoint func() error
	ioStats    func() (memHits, diskReads, flushed int64)
	closeFn    func() error

	gets, puts, deletes    atomic.Int64
	batchGets, batchPuts   atomic.Int64
	batchGetKs, batchPutKs atomic.Int64
}

func (w *liftedStore) NewSession() (Session, error) {
	es, err := w.newSess()
	if err != nil {
		return nil, err
	}
	return &liftedSession{st: w, es: es}, nil
}

func (w *liftedStore) ValueSize() int    { return w.valueSize }
func (w *liftedStore) Name() string      { return w.name }
func (w *liftedStore) Close() error      { return w.closeFn() }
func (w *liftedStore) Checkpoint() error { return w.checkpoint() }

// Stats maps the lift-level operation counters plus the engine's IO
// counters onto the shared snapshot shape (batch calls count once per
// contained key, like the sharded FASTER adapter).
func (w *liftedStore) Stats() faster.StatsSnapshot {
	memHits, diskReads, flushed := w.ioStats()
	return faster.StatsSnapshot{
		Gets:         w.gets.Load() + w.batchGetKs.Load(),
		Puts:         w.puts.Load() + w.batchPutKs.Load(),
		Deletes:      w.deletes.Load(),
		MemHits:      memHits,
		DiskReads:    diskReads,
		FlushedPages: flushed,
	}
}

// BatchCalls implements BatchCallReporter.
func (w *liftedStore) BatchCalls() (gets, puts int64) {
	return w.batchGets.Load(), w.batchPuts.Load()
}

// liftedSession is the lifted store's session: BatchSession through the
// engine's native batch path, PeekSession trivially (clock-free reads have
// no consistency effects, so Peek is Get).
type liftedSession struct {
	st *liftedStore
	es engineSession
}

func (se *liftedSession) Get(key uint64, dst []byte) (bool, error) {
	se.st.gets.Add(1)
	return se.es.Get(key, dst)
}

func (se *liftedSession) Put(key uint64, val []byte) error {
	se.st.puts.Add(1)
	return se.es.Put(key, val)
}

func (se *liftedSession) Delete(key uint64) error {
	se.st.deletes.Add(1)
	return se.es.Delete(key)
}

func (se *liftedSession) Prefetch(key uint64) (bool, error) { return se.es.Prefetch(key) }

// Peek implements PeekSession: on a clock-free engine a plain Get already
// has no consistency effects.
func (se *liftedSession) Peek(key uint64, dst []byte) (bool, error) {
	se.st.gets.Add(1)
	return se.es.Get(key, dst)
}

// GetBatch implements BatchSession as one native engine call.
func (se *liftedSession) GetBatch(keys []uint64, vals []byte, found []bool) error {
	se.st.batchGets.Add(1)
	se.st.batchGetKs.Add(int64(len(keys)))
	if err := se.es.GetBatch(keys, vals, found); err != nil {
		return err
	}
	vs := se.st.valueSize
	for i, ok := range found {
		if !ok {
			clear(vals[i*vs : (i+1)*vs])
		}
	}
	return nil
}

// PutBatch implements BatchSession as one native engine call.
func (se *liftedSession) PutBatch(keys []uint64, vals []byte) error {
	se.st.batchPuts.Add(1)
	se.st.batchPutKs.Add(int64(len(keys)))
	return se.es.PutBatch(keys, vals)
}

func (se *liftedSession) Close() { se.es.Close() }

// liftLSM wraps an LSM store with the full adapter surface. Checkpoint is
// Flush (memtable + WAL to sorted tables); cache stats map to mem-hit and
// disk-read counters.
func liftLSM(s *lsm.Store, name string) *liftedStore {
	return &liftedStore{
		name:      name,
		engine:    EngineLSM,
		valueSize: s.ValueSize(),
		newSess: func() (engineSession, error) {
			return s.NewSession()
		},
		checkpoint: func() error { return s.Flush() },
		ioStats: func() (int64, int64, int64) {
			hits, misses := s.CacheStats()
			return hits, misses, 0
		},
		closeFn: func() error { return s.Close() },
	}
}

// liftBPTree wraps a B+tree store with the full adapter surface.
// Checkpoint is Sync (dirty pages + metadata to the file); pager stats map
// to mem-hit, disk-read, and flushed-page counters.
func liftBPTree(s *bptree.Store, name string) *liftedStore {
	return &liftedStore{
		name:      name,
		engine:    EngineBPTree,
		valueSize: s.ValueSize(),
		newSess: func() (engineSession, error) {
			return s.NewSession()
		},
		checkpoint: func() error { return s.Sync() },
		ioStats: func() (int64, int64, int64) {
			reads, writes, hits := s.IOStats()
			return hits, reads, writes
		},
		closeFn: func() error { return s.Close() },
	}
}

// engineShardStore hash-partitions N lifted stores the way
// WrapFasterShards partitions FASTER stores, with batch fan-out that
// reaches each shard's engine as one native batch call. The engines here
// are clock-free — no staleness bound, so batches never need the
// blocking-bound serial order the clocked adapter enforces and always fan
// out per shard.
type engineShardStore struct {
	stores []*liftedStore
	name   string
}

func (w *engineShardStore) NewSession() (Session, error) {
	ss := make([]*liftedSession, len(w.stores))
	for i, st := range w.stores {
		s, err := st.NewSession()
		if err != nil {
			for _, prev := range ss[:i] {
				prev.Close()
			}
			return nil, err
		}
		ss[i] = s.(*liftedSession)
	}
	return &engineShardSession{
		ss:      ss,
		vs:      w.stores[0].valueSize,
		groups:  make([][]int, len(ss)),
		scratch: make([]shardScratch, len(ss)),
	}, nil
}

func (w *engineShardStore) ValueSize() int { return w.stores[0].valueSize }
func (w *engineShardStore) Name() string   { return w.name }
func (w *engineShardStore) Shards() int    { return len(w.stores) }

func (w *engineShardStore) Close() error {
	var first error
	for _, st := range w.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint makes every shard durable, in parallel.
func (w *engineShardStore) Checkpoint() error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.stores))
	for i, st := range w.stores {
		wg.Add(1)
		go func(i int, st *liftedStore) {
			defer wg.Done()
			errs[i] = st.Checkpoint()
		}(i, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats returns the element-wise sum of every shard's counters.
func (w *engineShardStore) Stats() faster.StatsSnapshot {
	var sum faster.StatsSnapshot
	for _, st := range w.stores {
		sum = sum.Add(st.Stats())
	}
	return sum
}

// BatchCalls implements BatchCallReporter across shards.
func (w *engineShardStore) BatchCalls() (gets, puts int64) {
	for _, st := range w.stores {
		g, p := st.BatchCalls()
		gets += g
		puts += p
	}
	return gets, puts
}

// shardScratch is one shard's reusable gather buffers for batch fan-out.
type shardScratch struct {
	keys []uint64
	vals []byte
	fnd  []bool
	err  error
}

type engineShardSession struct {
	ss      []*liftedSession
	vs      int
	groups  [][]int
	scratch []shardScratch
}

func (se *engineShardSession) route(key uint64) *liftedSession {
	return se.ss[util.ShardOf(key, len(se.ss))]
}

func (se *engineShardSession) Get(key uint64, dst []byte) (bool, error) {
	return se.route(key).Get(key, dst)
}
func (se *engineShardSession) Put(key uint64, val []byte) error { return se.route(key).Put(key, val) }
func (se *engineShardSession) Delete(key uint64) error          { return se.route(key).Delete(key) }
func (se *engineShardSession) Prefetch(key uint64) (bool, error) {
	return se.route(key).Prefetch(key)
}

// Peek implements PeekSession (clock-free: Peek is Get).
func (se *engineShardSession) Peek(key uint64, dst []byte) (bool, error) {
	return se.route(key).Peek(key, dst)
}

func (se *engineShardSession) Close() {
	for _, s := range se.ss {
		s.Close()
	}
}

// group partitions the batch's indices by owning shard into the session's
// reusable buffers.
func (se *engineShardSession) group(keys []uint64) [][]int {
	n := len(se.ss)
	for i := range se.groups {
		se.groups[i] = se.groups[i][:0]
	}
	for i, k := range keys {
		sh := util.ShardOf(k, n)
		se.groups[sh] = append(se.groups[sh], i)
	}
	return se.groups
}

// GetBatch implements BatchSession: keys gather into per-shard contiguous
// buffers, each shard answers with ONE native engine batch call, and the
// results scatter back to the caller's slots. Shards run in parallel for
// large batches.
func (se *engineShardSession) GetBatch(keys []uint64, vals []byte, found []bool) error {
	if len(keys) == 0 {
		return nil
	}
	vs := se.vs
	groups := se.group(keys)
	run := func(sh int, idxs []int) error {
		sc := &se.scratch[sh]
		sc.keys = sc.keys[:0]
		for _, i := range idxs {
			sc.keys = append(sc.keys, keys[i])
		}
		need := len(idxs) * vs
		if cap(sc.vals) < need {
			sc.vals = make([]byte, need)
		}
		if cap(sc.fnd) < len(idxs) {
			sc.fnd = make([]bool, len(idxs))
		}
		sv, sf := sc.vals[:need], sc.fnd[:len(idxs)]
		if err := se.ss[sh].GetBatch(sc.keys, sv, sf); err != nil {
			return err
		}
		for j, i := range idxs {
			copy(vals[i*vs:(i+1)*vs], sv[j*vs:(j+1)*vs])
			found[i] = sf[j]
		}
		return nil
	}
	return se.eachShard(len(keys), groups, run)
}

// PutBatch implements BatchSession with the same per-shard gather.
func (se *engineShardSession) PutBatch(keys []uint64, vals []byte) error {
	if len(keys) == 0 {
		return nil
	}
	vs := se.vs
	groups := se.group(keys)
	run := func(sh int, idxs []int) error {
		sc := &se.scratch[sh]
		sc.keys = sc.keys[:0]
		need := len(idxs) * vs
		if cap(sc.vals) < need {
			sc.vals = make([]byte, need)
		}
		sv := sc.vals[:need]
		for j, i := range idxs {
			sc.keys = append(sc.keys, keys[i])
			copy(sv[j*vs:(j+1)*vs], vals[i*vs:(i+1)*vs])
		}
		return se.ss[sh].PutBatch(sc.keys, sv)
	}
	return se.eachShard(len(keys), groups, run)
}

// eachShard runs op over every non-empty shard group — serially for small
// batches, one goroutine per shard otherwise (the engines are internally
// synchronized, so parallel shard batches are safe).
func (se *engineShardSession) eachShard(total int, groups [][]int, op func(sh int, idxs []int) error) error {
	if total < util.BatchFanoutMin {
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
	for sh, idxs := range groups {
		se.scratch[sh].err = nil
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, idxs []int) {
			defer wg.Done()
			se.scratch[sh].err = op(sh, idxs)
		}(sh, idxs)
	}
	wg.Wait()
	for sh := range se.scratch {
		if err := se.scratch[sh].err; err != nil {
			return err
		}
	}
	return nil
}

// engineMetaFile pins a store directory to one engine, so reopening with a
// different engine fails crisply instead of misparsing on-disk state.
const engineMetaFile = "ENGINE"

func checkEngineMeta(dir, engine string) error {
	path := filepath.Join(dir, engineMetaFile)
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, []byte(engine+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	if got := strings.TrimSpace(string(buf)); got != engine {
		return fmt.Errorf("kv: directory %s holds a %q store, cannot reopen as %q", dir, got, engine)
	}
	return nil
}

// CheckEngineDir pins dir to the named engine: it creates the directory
// if needed, records the engine on first use, and fails if the directory
// already belongs to a different engine. OpenEngine does this itself;
// the export is for callers that open the hybrid log through core.Table
// instead and still want the cross-engine reopen guard.
func CheckEngineDir(dir, engine string) error {
	eng, err := NormalizeEngine(engine)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return checkEngineMeta(dir, eng)
}

// OpenEngine opens a store of the named engine under cfg — the one place
// every CLI, server, and driver derives an engine store from a total
// budget, mirroring OpenFasterShards' split policy:
//
//   - "faster" (aliases "", "mlkv"): OpenFasterShards verbatim, staleness
//     bound and all.
//   - "lsm": cfg.Shards LSM trees, each with half its memory share as
//     memtable and half as block cache.
//   - "bptree": cfg.Shards B+trees, each with its memory share as buffer
//     pool.
//
// The clock-free engines reject a blocking staleness bound (BSP or finite
// SSP) up front: they have no vector clock, so accepting one would
// silently serve unbounded reads.
func OpenEngine(engine string, cfg ShardedConfig, name string) (Store, error) {
	eng, err := NormalizeEngine(engine)
	if err != nil {
		return nil, err
	}
	if eng == EngineFaster {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := checkEngineMeta(cfg.Dir, eng); err != nil {
			return nil, err
		}
		return OpenFasterShards(cfg, name)
	}
	if faster.BlockingBound(cfg.StalenessBound) {
		return nil, fmt.Errorf("kv: engine %q has no vector clock and cannot honor blocking staleness bound %d (use the faster engine, or an async/disabled bound)", eng, cfg.StalenessBound)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkEngineMeta(cfg.Dir, eng); err != nil {
		return nil, err
	}
	if err := util.ValidateShardMeta(cfg.Dir, cfg.Shards); err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	stores := make([]*liftedStore, cfg.Shards)
	fail := func(i int, err error) (Store, error) {
		for _, prev := range stores[:i] {
			prev.Close()
		}
		return nil, err
	}
	for i := range stores {
		d := cfg.Dir
		if cfg.Shards > 1 {
			d = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%03d", i))
		}
		switch eng {
		case EngineLSM:
			memBytes := int(cfg.MemoryBytes) / (2 * cfg.Shards)
			if memBytes < 64<<10 {
				memBytes = 64 << 10
			}
			st, err := lsm.Open(lsm.Config{
				Dir:           d,
				ValueSize:     cfg.ValueSize,
				MemtableBytes: memBytes,
				CacheBytes:    memBytes,
				SyncWAL:       cfg.SyncWrites,
			})
			if err != nil {
				return fail(i, err)
			}
			stores[i] = liftLSM(st, name)
		case EngineBPTree:
			poolPages := int(cfg.MemoryBytes) / cfg.Shards / 4096
			if poolPages < 64 {
				poolPages = 64
			}
			st, err := bptree.Open(bptree.Config{
				Dir:        d,
				ValueSize:  cfg.ValueSize,
				PoolPages:  poolPages,
				SyncWrites: cfg.SyncWrites,
			})
			if err != nil {
				return fail(i, err)
			}
			stores[i] = liftBPTree(st, name)
		}
	}
	if err := util.WriteShardMeta(cfg.Dir, cfg.Shards); err != nil {
		return fail(cfg.Shards, err)
	}
	if cfg.Shards == 1 {
		return stores[0], nil
	}
	return &engineShardStore{stores: stores, name: name}, nil
}
