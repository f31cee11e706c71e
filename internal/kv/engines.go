package kv

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// clockFreeSession is the native session surface the clock-free engines
// share (both *lsm.Session and *bptree.Session satisfy it), including the
// contiguous batch entry points liftedSession builds on.
type clockFreeSession interface {
	Get(key uint64, dst []byte) (bool, error)
	Put(key uint64, val []byte) error
	Delete(key uint64) error
	Prefetch(key uint64) (bool, error)
	GetBatch(keys []uint64, vals []byte, found []bool) error
	PutBatch(keys []uint64, vals []byte) error
	Close()
}

// liftedStore is one clock-free engine store as a router shard, with
// operation counters kept at this layer (the engines themselves only
// count IO).
type liftedStore struct {
	valueSize int

	newSess    func() (clockFreeSession, error)
	checkpoint func() error
	ioStats    func() (memHits, diskReads, flushed int64)
	closeFn    func() error

	gets, puts, deletes    atomic.Int64
	batchGets, batchPuts   atomic.Int64
	batchGetKs, batchPutKs atomic.Int64
}

func (w *liftedStore) session() (engineSession, error) {
	es, err := w.newSess()
	if err != nil {
		return nil, err
	}
	return &liftedSession{st: w, es: es}, nil
}

// blocking is always false: a clock-free read never waits.
func (w *liftedStore) blocking() bool    { return false }
func (w *liftedStore) Close() error      { return w.closeFn() }
func (w *liftedStore) Checkpoint() error { return w.checkpoint() }

// Stats maps the lift-level operation counters plus the engine's IO
// counters onto the shared snapshot shape (batch calls count once per
// contained key, like the hybrid log).
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

// liftedSession lifts a clock-free engine session onto the router's
// engineSession. ctx is ignored and Peek is Get, because clock-free reads
// never block and have no consistency effects. A batch is always ONE
// native engine call: the whole caller batch when idxs is nil, else the
// selected group gathered into the session's contiguous scratch and
// scattered back.
type liftedSession struct {
	st *liftedStore
	es clockFreeSession

	keys []uint64 // gather scratch for index-selected batches
	vals []byte
	fnd  []bool
}

func (se *liftedSession) Get(key uint64, dst []byte) (bool, error) {
	se.st.gets.Add(1)
	return se.es.Get(key, dst)
}

func (se *liftedSession) GetCtx(_ context.Context, key uint64, dst []byte) (bool, error) {
	return se.Get(key, dst)
}

func (se *liftedSession) Peek(key uint64, dst []byte) (bool, error) { return se.Get(key, dst) }

func (se *liftedSession) Put(key uint64, val []byte) error {
	se.st.puts.Add(1)
	return se.es.Put(key, val)
}

func (se *liftedSession) Delete(key uint64) error {
	se.st.deletes.Add(1)
	return se.es.Delete(key)
}

func (se *liftedSession) Prefetch(key uint64) (bool, error) { return se.es.Prefetch(key) }
func (se *liftedSession) Close()                            { se.es.Close() }

// gather copies the keys idxs selects into the session's scratch and
// sizes the value and found scratch for them.
func (se *liftedSession) gather(keys []uint64, idxs []int) ([]uint64, []byte, []bool) {
	se.keys = se.keys[:0]
	for _, i := range idxs {
		se.keys = append(se.keys, keys[i])
	}
	need := len(idxs) * se.st.valueSize
	if cap(se.vals) < need {
		se.vals = make([]byte, need)
	}
	if cap(se.fnd) < len(idxs) {
		se.fnd = make([]bool, len(idxs))
	}
	return se.keys, se.vals[:need], se.fnd[:len(idxs)]
}

func (se *liftedSession) GetBatch(_ context.Context, keys []uint64, idxs []int, vals []byte, found []bool) error {
	vs := se.st.valueSize
	gk, gv, gf := keys, vals, found
	if idxs != nil {
		gk, gv, gf = se.gather(keys, idxs)
	}
	se.st.batchGets.Add(1)
	se.st.batchGetKs.Add(int64(len(gk)))
	if err := se.es.GetBatch(gk, gv, gf); err != nil {
		return err
	}
	for j, ok := range gf {
		if !ok {
			clear(gv[j*vs : (j+1)*vs])
		}
	}
	for j, i := range idxs {
		copy(vals[i*vs:(i+1)*vs], gv[j*vs:(j+1)*vs])
		found[i] = gf[j]
	}
	return nil
}

func (se *liftedSession) PutBatch(keys []uint64, idxs []int, vals []byte) error {
	if idxs != nil {
		vs := se.st.valueSize
		gk, gv, _ := se.gather(keys, idxs)
		for j, i := range idxs {
			copy(gv[j*vs:(j+1)*vs], vals[i*vs:(i+1)*vs])
		}
		keys, vals = gk, gv
	}
	se.st.batchPuts.Add(1)
	se.st.batchPutKs.Add(int64(len(keys)))
	return se.es.PutBatch(keys, vals)
}

// liftLSM lifts an LSM store onto a router shard. Checkpoint is Flush
// (memtable + WAL to sorted tables); cache stats map to mem-hit and
// disk-read counters.
func liftLSM(s *lsm.Store) *liftedStore {
	return &liftedStore{
		valueSize:  s.ValueSize(),
		newSess:    func() (clockFreeSession, error) { return s.NewSession() },
		checkpoint: s.Flush,
		ioStats: func() (int64, int64, int64) {
			hits, misses := s.CacheStats()
			return hits, misses, 0
		},
		closeFn: s.Close,
	}
}

// liftBPTree lifts a B+tree store onto a router shard. Checkpoint is Sync
// (dirty pages + metadata to the file); pager stats map to mem-hit,
// disk-read, and flushed-page counters.
func liftBPTree(s *bptree.Store) *liftedStore {
	return &liftedStore{
		valueSize:  s.ValueSize(),
		newSess:    func() (clockFreeSession, error) { return s.NewSession() },
		checkpoint: s.Sync,
		ioStats: func() (int64, int64, int64) {
			reads, writes, hits := s.IOStats()
			return hits, reads, writes
		},
		closeFn: s.Close,
	}
}

// engineMetaFile pins a store directory to one engine, so reopening with a
// different engine fails crisply instead of misparsing on-disk state.
const engineMetaFile = "ENGINE"

func checkEngineMeta(dir, engine string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, engineMetaFile)
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return util.AtomicWriteFile(path, []byte(engine+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	if got := strings.TrimSpace(string(buf)); got != engine {
		return fmt.Errorf("kv: directory %s holds a %q store, cannot reopen as %q", dir, got, engine)
	}
	return nil
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
	if ClockFree(eng) && faster.BlockingBound(cfg.StalenessBound) {
		return nil, fmt.Errorf("kv: engine %q has no vector clock and cannot honor blocking staleness bound %d (use the faster engine, or an async/disabled bound)", eng, cfg.StalenessBound)
	}
	if err := checkEngineMeta(cfg.Dir, eng); err != nil {
		return nil, err
	}
	cfg.Shards = max(cfg.Shards, 1)
	var open func(dir string) (*liftedStore, error)
	switch eng {
	case EngineFaster:
		return OpenFasterShards(cfg, name)
	case EngineLSM:
		memBytes := max(int(cfg.MemoryBytes)/(2*cfg.Shards), 64<<10)
		open = func(dir string) (*liftedStore, error) {
			st, err := lsm.Open(lsm.Config{
				Dir:           dir,
				ValueSize:     cfg.ValueSize,
				MemtableBytes: memBytes,
				CacheBytes:    memBytes,
				SyncWAL:       cfg.SyncWrites,
			})
			if err != nil {
				return nil, err
			}
			return liftLSM(st), nil
		}
	case EngineBPTree:
		poolPages := max(int(cfg.MemoryBytes)/cfg.Shards/4096, 64)
		open = func(dir string) (*liftedStore, error) {
			st, err := bptree.Open(bptree.Config{
				Dir:        dir,
				ValueSize:  cfg.ValueSize,
				PoolPages:  poolPages,
				SyncWrites: cfg.SyncWrites,
			})
			if err != nil {
				return nil, err
			}
			return liftBPTree(st), nil
		}
	}
	lifted, err := util.OpenShards(cfg.Dir, cfg.Shards, open)
	if err != nil {
		return nil, err
	}
	return wrapLifted(lifted, name), nil
}
