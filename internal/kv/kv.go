// Package kv defines the backend-neutral key-value interface that the
// training pipelines and benchmarks run against, plus adapters for each
// engine (MLKV/FASTER hybrid-log, LSM-tree, disk B+tree, sharded memory).
// It mirrors how the paper integrates PERSIA/DGL/DGL-KE with FASTER,
// RocksDB, and WiredTiger behind one embedding-access layer.
package kv

import (
	"context"
	"fmt"

	"github.com/llm-db/mlkv-go/internal/faster"
)

// Store is a disk-backed key-value store with fixed-size values.
type Store interface {
	// NewSession returns a handle for one worker goroutine. Sessions are
	// not safe for concurrent use; the Store itself is.
	NewSession() (Session, error)
	// ValueSize is the fixed value payload in bytes.
	ValueSize() int
	// Name identifies the engine in benchmark output.
	Name() string
	// Close releases resources.
	Close() error
}

// Session is one worker's operation handle.
type Session interface {
	// Get reads key's value into dst (len must equal ValueSize).
	Get(key uint64, dst []byte) (bool, error)
	// Put upserts key's value.
	Put(key uint64, val []byte) error
	// Delete removes key.
	Delete(key uint64) error
	// Prefetch hints that key will be read soon. Engines without native
	// prefetch return false immediately.
	Prefetch(key uint64) (bool, error)
	// Close releases the session.
	Close()
}

// BatchSession is an optional Session extension for engines with a native
// batch path (the shard router fans a batch out across shards in
// parallel; the network client ships it as one frame). Callers should go
// through SessionGetBatch/SessionPutBatch, which fall back to per-key
// loops on plain sessions.
type BatchSession interface {
	Session
	// GetBatch reads len(keys) values into vals (len(keys)×ValueSize),
	// recording presence in found and zeroing the value slot of any
	// missing key.
	GetBatch(keys []uint64, vals []byte, found []bool) error
	// PutBatch upserts len(keys) values from vals.
	PutBatch(keys []uint64, vals []byte) error
}

// PeekSession is an optional Session extension for engines whose reads
// normally have consistency effects (MLKV's clocked Gets). Peek reads
// without them: no vector-clock participation, no copy toward the mutable
// tail. Evaluation traffic goes through SessionPeek so scoring a model
// never acquires clock tokens that would stall training reads.
type PeekSession interface {
	Session
	// Peek reads key's value into dst without consistency effects.
	Peek(key uint64, dst []byte) (bool, error)
}

// LookaheadSession is an optional Session extension for engines with a
// native batched prefetch: the network client ships one LOOKAHEAD frame
// instead of one Prefetch round trip per key.
type LookaheadSession interface {
	Session
	// Lookahead hints that keys will be read soon, returning how many
	// records the engine reports moving toward memory.
	Lookahead(keys []uint64) (int, error)
}

// Checkpointer is an optional Store extension for engines that can make
// their contents durable on demand.
type Checkpointer interface {
	Checkpoint() error
}

// StatsReporter is an optional Store extension exposing the engine's
// merged operation counters (summed across shards for a sharded store).
type StatsReporter interface {
	Stats() faster.StatsSnapshot
}

// Sharded is an optional Store extension reporting the hash-partition
// count backing the store.
type Sharded interface {
	Shards() int
}

// CtxSession is an optional Session extension for engines whose reads
// can block (MLKV's clocked Gets waiting on the staleness bound): GetCtx
// gives up with ctx.Err() when ctx ends, without acquiring a token. The
// serving layer uses it to honor a remote client's deadline server-side,
// so an abandoned request cannot strand a staleness token.
type CtxSession interface {
	Session
	// GetCtx is Get bounded by ctx.
	GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error)
}

// CtxBatchSession is the batch counterpart of CtxSession.
type CtxBatchSession interface {
	BatchSession
	// GetBatchCtx is GetBatch bounded by ctx, checked on every key.
	GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error
}

// RMWSession is an optional Session extension for engines with an atomic
// storage-side read-modify-write (the hybrid log): fn runs on the key's
// current value, zeroed with exists=false when the key is absent, and no
// other writer of the key interleaves. Callers should go through
// SessionRMW, which falls back to get+fn+put on other sessions.
type RMWSession interface {
	Session
	RMW(key uint64, fn func(cur []byte, exists bool)) error
}

// Bounded is an optional Store extension for engines with MLKV's
// bounded-staleness clock: the serving layer reports the bound in OPEN
// responses and applies a client-requested bound at open time.
type Bounded interface {
	// StalenessBound returns the current bound (shared by all shards).
	StalenessBound() int64
	// SetStalenessBound changes the bound at runtime, on every shard.
	SetStalenessBound(int64)
}

// SessionPeek reads key without consistency effects when s supports it,
// falling back to a plain Get — which, for the clock-free engines that
// lack Peek (LSM, B+tree), is the same thing.
func SessionPeek(s Session, key uint64, dst []byte) (bool, error) {
	if ps, ok := s.(PeekSession); ok {
		return ps.Peek(key, dst)
	}
	return s.Get(key, dst)
}

// SessionLookahead hints that keys will be read soon — as one batched call
// when the engine has one, else one Prefetch per key — returning how many
// records the engine reports moving toward memory.
func SessionLookahead(s Session, keys []uint64) (int, error) {
	if ls, ok := s.(LookaheadSession); ok {
		return ls.Lookahead(keys)
	}
	n := 0
	for _, k := range keys {
		ok, err := s.Prefetch(k)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// SessionGetCtx reads key under ctx when s supports cancellation, falling
// back to a plain Get (engines whose reads never block).
func SessionGetCtx(ctx context.Context, s Session, key uint64, dst []byte) (bool, error) {
	if cs, ok := s.(CtxSession); ok {
		return cs.GetCtx(ctx, key, dst)
	}
	return s.Get(key, dst)
}

// SessionRMW applies fn to key's value as one atomic storage-side update
// when s is an RMWSession. Any other session falls back to a Get into buf
// (len ValueSize), fn, and a Put of buf — not atomic against concurrent
// writers of the key, which is all an engine without a native RMW offers.
func SessionRMW(s Session, key uint64, buf []byte, fn func(cur []byte, exists bool)) error {
	if rs, ok := s.(RMWSession); ok {
		return rs.RMW(key, fn)
	}
	found, err := s.Get(key, buf)
	if err != nil {
		return err
	}
	if !found {
		clear(buf)
	}
	fn(buf, found)
	return s.Put(key, buf)
}

// SessionGetBatch reads len(keys) values into vals (len(keys)×valueSize)
// through s's native batch path when it has one, else key by key. Missing
// keys get found[i]=false and a zeroed value slot either way.
func SessionGetBatch(s Session, valueSize int, keys []uint64, vals []byte, found []bool) error {
	return SessionGetBatchCtx(context.Background(), s, valueSize, keys, vals, found)
}

// SessionGetBatchCtx is SessionGetBatch bounded by ctx where the engine
// supports it.
func SessionGetBatchCtx(ctx context.Context, s Session, valueSize int, keys []uint64, vals []byte, found []bool) error {
	if len(vals) != len(keys)*valueSize || len(found) != len(keys) {
		return fmt.Errorf("kv: GetBatch buffers sized %d/%d for %d keys × %d bytes",
			len(vals), len(found), len(keys), valueSize)
	}
	if bs, ok := s.(CtxBatchSession); ok {
		return bs.GetBatchCtx(ctx, keys, vals, found)
	}
	if bs, ok := s.(BatchSession); ok {
		return bs.GetBatch(keys, vals, found)
	}
	for i, k := range keys {
		slot := vals[i*valueSize : (i+1)*valueSize]
		ok, err := SessionGetCtx(ctx, s, k, slot)
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

// SessionPutBatch upserts len(keys) values from vals through s's native
// batch path when it has one, else key by key.
func SessionPutBatch(s Session, valueSize int, keys []uint64, vals []byte) error {
	if len(vals) != len(keys)*valueSize {
		return fmt.Errorf("kv: PutBatch vals sized %d for %d keys × %d bytes",
			len(vals), len(keys), valueSize)
	}
	if bs, ok := s.(BatchSession); ok {
		return bs.PutBatch(keys, vals)
	}
	for i, k := range keys {
		if err := s.Put(k, vals[i*valueSize:(i+1)*valueSize]); err != nil {
			return err
		}
	}
	return nil
}
