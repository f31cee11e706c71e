package driver

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/tensor"
)

// kvBackend serves a local model from a kv store — the same shard router,
// native batch path and hot-tier wrapper mlkv-server serves a model from.
// The hybrid log is the default engine; the clock-free engines (LSM,
// B+tree) are the paper's "framework + conventional KV store" deployment
// behind the same public API. The stores speak bytes, so the float32
// codec and deterministic first-touch initialization run on this side of
// the seam, exactly like the remote driver: a key reads identically no
// matter which engine or target materializes it.
type kvBackend struct {
	store  kv.Store // possibly a hot-tier wrapper over the engine
	engine string   // canonical: kv.EngineFaster, kv.EngineLSM or kv.EngineBPTree
	dim    int
	init   core.Initializer
	look   *lookahead // nil on clock-free engines, whose sessions ignore hints

	lat                  latency.OpSet
	sessions             atomic.Int64
	batchGets, batchPuts atomic.Int64
	lookCalls            atomic.Int64
}

func openKVBackend(dir, engine string, cfg Config) (*kvBackend, error) {
	bound := int64(-1) // clock-free engines default to the bound off
	if engine == kv.EngineFaster {
		// The public API's local default on the hybrid log: SSP(4). It
		// lives here rather than in the public layer so that an
		// engine-less reopen of an existing clock-free model never carries
		// an implied blocking bound the model would have to refuse.
		bound = 4
	}
	if cfg.BoundSet {
		bound = cfg.Bound // OpenEngine rejects blocking bounds on clock-free engines
	}
	store, err := kv.OpenEngine(engine, kv.ShardedConfig{
		Dir:            dir,
		Shards:         cfg.Shards,
		ValueSize:      cfg.Dim * 4,
		MemoryBytes:    cfg.MemoryBytes,
		ExpectedKeys:   cfg.ExpectedKeys,
		StalenessBound: bound,
		FlushPace:      cfg.FlushPace, // honored by the hybrid log; clock-free engines ignore it
	}, engine)
	if err != nil {
		return nil, err
	}
	if cfg.CacheEntries > 0 {
		store = kv.WrapCached(store, cfg.CacheEntries)
	}
	b := &kvBackend{store: store, engine: engine, dim: cfg.Dim, init: cfg.Init}
	if engine == kv.EngineFaster {
		b.look = newLookahead(cfg.PrefetchWorkers, lookaheadQueue, func() (func([]uint64), func(), error) {
			s, err := store.NewSession()
			if err != nil {
				return nil, nil, err
			}
			return func(keys []uint64) { kv.SessionLookahead(s, keys) }, s.Close, nil //nolint:errcheck // best-effort hint
		})
	}
	return b, nil
}

func (b *kvBackend) Dim() int { return b.dim }

func (b *kvBackend) Shards() int {
	if sh, ok := b.store.(kv.Sharded); ok {
		return sh.Shards()
	}
	return 1
}

// EngineName reports the hybrid log as "mlkv" while its vector clock runs
// and "faster" when the bound disables it; a clock-free engine by name.
func (b *kvBackend) EngineName() string {
	if b.engine != kv.EngineFaster {
		return b.engine
	}
	if b.StalenessBound() >= 0 {
		return "mlkv"
	}
	return "faster"
}

// StalenessBound is the hybrid log's bound, and -1 on engines without a
// vector clock.
func (b *kvBackend) StalenessBound() int64 {
	if bd, ok := b.store.(kv.Bounded); ok {
		return bd.StalenessBound()
	}
	return -1
}

func (b *kvBackend) SetStalenessBound(bound int64) error {
	if bd, ok := b.store.(kv.Bounded); ok {
		bd.SetStalenessBound(bound)
		return nil
	}
	if faster.BlockingBound(bound) {
		return fmt.Errorf("driver: engine %q has no vector clock and cannot honor blocking staleness bound %d", b.engine, bound)
	}
	return nil // ASP / disabled are what the engine already does
}

func (b *kvBackend) Checkpoint() error {
	if cp, ok := b.store.(kv.Checkpointer); ok {
		return cp.Checkpoint()
	}
	return fmt.Errorf("driver: engine %q cannot checkpoint", b.engine)
}

func (b *kvBackend) Stats() Stats {
	st := Stats{
		BatchGets:      b.batchGets.Load(),
		BatchPuts:      b.batchPuts.Load(),
		LookaheadCalls: b.lookCalls.Load(),
		LatGet:         b.lat[latency.OpGet].Snapshot(),
		LatGetBatch:    b.lat[latency.OpGetBatch].Snapshot(),
		LatPut:         b.lat[latency.OpPut].Snapshot(),
		LatPutBatch:    b.lat[latency.OpPutBatch].Snapshot(),
		LatRMW:         b.lat[latency.OpRMW].Snapshot(),
	}
	if b.look != nil {
		st.PrefetchDropped = b.look.dropped.Load()
	}
	if sr, ok := b.store.(kv.StatsReporter); ok {
		ss := sr.Stats()
		st.Gets, st.Puts, st.RMWs, st.Deletes = ss.Gets, ss.Puts, ss.RMWs, ss.Deletes
		st.MemHits, st.DiskReads = ss.MemHits, ss.DiskReads
		st.InPlaceUpdates, st.RCUAppends = ss.InPlaceUpdates, ss.RCUAppends
		st.StalenessWaits, st.PrefetchCopies = ss.StalenessWaits, ss.PrefetchCopies
		st.FlushedPages, st.BytesFlushed = ss.FlushedPages, ss.BytesFlushed
		st.GroupCommits, st.FlushPaceStalls = ss.GroupCommits, ss.FlushPaceStalls
	}
	if cr, ok := b.store.(kv.CacheStatsReporter); ok {
		cs := cr.CacheStats()
		st.CacheHits, st.CacheMisses, st.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	}
	return st
}

func (b *kvBackend) ActiveSessions() int64 { return b.sessions.Load() }

func (b *kvBackend) NewSession() (Session, error) {
	s, err := b.store.NewSession()
	if err != nil {
		return nil, err
	}
	b.sessions.Add(1)
	ks := &kvSession{b: b, s: s, buf: make([]byte, b.dim*4)}
	ks.rmwFn = ks.applyRMW
	return ks, nil
}

// Close stops the lookahead workers, then closes the store.
func (b *kvBackend) Close() error {
	if b.look != nil {
		b.look.close()
	}
	return b.store.Close()
}

// kvSession adapts a byte-level kv.Session to the driver seam: float32
// conversion, first-touch initialization with write-back, and RMW through
// kv.SessionRMW (atomic in storage on the hybrid log).
type kvSession struct {
	b      *kvBackend
	s      kv.Session
	buf    []byte // one value, scalar-path staging
	closed bool

	// Batch-path scratch, grown on demand and reused across calls.
	bbuf     []byte
	found    []bool
	missKeys []uint64
	missVals []byte

	// RMW arguments, read by rmwFn (applyRMW bound once per session, so
	// the call allocates no closure); rmwInit stages a first-touch value.
	rmwFn   func(cur []byte, exists bool)
	rmwKey  uint64
	rmwGrad []float32
	rmwLR   float32
	rmwInit []float32
}

func (s *kvSession) initInto(key uint64, dst []float32) {
	if s.b.init != nil {
		s.b.init(key, dst)
		return
	}
	clear(dst)
}

// Get reads key, initializing it on first touch: a miss acquires no
// staleness token, so the initial embedding is written back like any Put
// and every session (and every engine) materializes the same value.
func (s *kvSession) Get(ctx context.Context, key uint64, dst []float32) error {
	if len(dst) != s.b.dim {
		return fmt.Errorf("driver: dst length %d != dim %d", len(dst), s.b.dim)
	}
	defer s.b.lat.Since(latency.OpGet, time.Now())
	found, err := kv.SessionGetCtx(ctx, s.s, key, s.buf)
	if err != nil {
		return err
	}
	if !found {
		s.initInto(key, dst)
		tensor.F32sToBytes(dst, s.buf)
		return s.s.Put(key, s.buf)
	}
	tensor.BytesToF32s(s.buf, dst)
	return nil
}

// GetBatch issues one batched read, then initializes and writes back the
// missing keys with one batched write — the scalar first-touch protocol
// paid once per batch instead of once per key.
func (s *kvSession) GetBatch(ctx context.Context, keys []uint64, dst []float32) error {
	dim := s.b.dim
	if len(dst) != len(keys)*dim {
		return fmt.Errorf("driver: dst length %d != %d keys × dim %d", len(dst), len(keys), dim)
	}
	defer s.b.lat.Since(latency.OpGetBatch, time.Now())
	s.b.batchGets.Add(1)
	vs := dim * 4
	s.bbuf = growSlice(s.bbuf, len(keys)*vs)
	s.found = growSlice(s.found, len(keys))
	if err := kv.SessionGetBatchCtx(ctx, s.s, vs, keys, s.bbuf, s.found); err != nil {
		return err
	}
	s.missKeys = s.missKeys[:0]
	s.missVals = s.missVals[:0]
	for i, ok := range s.found {
		seg := dst[i*dim : (i+1)*dim]
		if ok {
			tensor.BytesToF32s(s.bbuf[i*vs:], seg)
			continue
		}
		s.initInto(keys[i], seg)
		s.missKeys = append(s.missKeys, keys[i])
		n := len(s.missVals)
		s.missVals = extendBytes(s.missVals, vs)
		tensor.F32sToBytes(seg, s.missVals[n:])
	}
	if len(s.missKeys) == 0 {
		return nil
	}
	return kv.SessionPutBatch(s.s, vs, s.missKeys, s.missVals)
}

func (s *kvSession) Put(ctx context.Context, key uint64, val []float32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(val) != s.b.dim {
		return fmt.Errorf("driver: val length %d != dim %d", len(val), s.b.dim)
	}
	defer s.b.lat.Since(latency.OpPut, time.Now())
	tensor.F32sToBytes(val, s.buf)
	return s.s.Put(key, s.buf)
}

func (s *kvSession) PutBatch(ctx context.Context, keys []uint64, vals []float32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dim := s.b.dim
	if len(vals) != len(keys)*dim {
		return fmt.Errorf("driver: vals length %d != %d keys × dim %d", len(vals), len(keys), dim)
	}
	defer s.b.lat.Since(latency.OpPutBatch, time.Now())
	s.b.batchPuts.Add(1)
	vs := dim * 4
	s.bbuf = growSlice(s.bbuf, len(keys)*vs)
	tensor.F32sToBytes(vals, s.bbuf)
	return kv.SessionPutBatch(s.s, vs, keys, s.bbuf[:len(keys)*vs])
}

// RMW applies emb ← emb − lr·grad, initializing an absent key first. On
// the hybrid log it is one atomic storage-side update (the Rmw path of
// Figure 4, step 8); the clock-free engines fall back to get+step+put,
// which concurrent updaters of one key should avoid by batching their
// gradients the way the trainers do.
func (s *kvSession) RMW(ctx context.Context, key uint64, grad []float32, lr float32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dim := s.b.dim
	if len(grad) != dim {
		return fmt.Errorf("driver: grad length %d != dim %d", len(grad), dim)
	}
	defer s.b.lat.Since(latency.OpRMW, time.Now())
	s.rmwKey, s.rmwGrad, s.rmwLR = key, grad, lr
	err := kv.SessionRMW(s.s, key, s.buf, s.rmwFn)
	s.rmwGrad = nil
	return err
}

// applyRMW is the update RMW hands to storage: initialize an absent key,
// then step it by the session's pending gradient.
func (s *kvSession) applyRMW(cur []byte, exists bool) {
	if !exists && s.b.init != nil {
		s.rmwInit = growSlice(s.rmwInit, s.b.dim)
		s.b.init(s.rmwKey, s.rmwInit)
		tensor.F32sToBytes(s.rmwInit, cur)
	}
	for i, g := range s.rmwGrad {
		v := math.Float32frombits(binary.LittleEndian.Uint32(cur[i*4:]))
		binary.LittleEndian.PutUint32(cur[i*4:], math.Float32bits(v-s.rmwLR*g))
	}
}

// Peek reads without first-touch side effects; missing keys leave dst
// zeroed.
func (s *kvSession) Peek(ctx context.Context, key uint64, dst []float32) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if len(dst) != s.b.dim {
		return false, fmt.Errorf("driver: dst length %d != dim %d", len(dst), s.b.dim)
	}
	found, err := kv.SessionPeek(s.s, key, s.buf)
	if err != nil {
		return false, err
	}
	if !found {
		clear(dst)
		return false, nil
	}
	tensor.BytesToF32s(s.buf, dst)
	return true, nil
}

func (s *kvSession) Delete(ctx context.Context, key uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.s.Delete(key)
}

// Lookahead hands keys to the model's lookahead workers and returns at
// once. Clock-free engines have nothing to prefetch into, so their hints
// are counted and dropped here.
func (s *kvSession) Lookahead(keys []uint64) error {
	s.b.lookCalls.Add(1)
	if s.b.look != nil {
		s.b.look.hint(keys)
	}
	return nil
}

// Close releases the session. Closing twice is safe.
func (s *kvSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.s.Close()
	s.b.sessions.Add(-1)
}
