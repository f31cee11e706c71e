package main

import (
	"context"
	"math/bits"
	"net"
	"sync/atomic"
	"time"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/train"
)

// Operation classes of calls into mlkv (a Session or a train.Handle).
const (
	opGet = iota
	opGetBatch
	opPut
	opPutBatch
	opPeek
	opLookahead
	numOps
)

var opNames = [numOps]string{"get", "getbatch", "put", "putbatch", "peek", "lookahead"}

// callStats counts and times the calls of one layer, per class.
type callStats struct {
	calls  [numOps]atomic.Int64
	busyNS [numOps]atomic.Int64
	keys   [numOps]atomic.Int64
}

func (c *callStats) add(op, keys int, d time.Duration) {
	c.calls[op].Add(1)
	c.busyNS[op].Add(int64(d))
	c.keys[op].Add(int64(keys))
}

func (c *callStats) busy() time.Duration {
	var t int64
	for i := range c.busyNS {
		t += c.busyNS[i].Load()
	}
	return time.Duration(t)
}

// clientStats is what the benchmark sees from the caller's side, beyond
// the latencies a segment keeps: per-class call counters and the
// attempted/failed tally.
type clientStats struct {
	calls               callStats
	attempted, failed   atomic.Int64
	mismatched          atomic.Int64 // reads whose value failed the check
	hinted              atomic.Int64 // keys passed to Lookahead
	tr                  *tracer
	nextCaller, stepSeq atomic.Int64
}

// --- train.Backend / train.Handle wrapper (train-disk) ---

// timedBackend times every call train.TrainCTR makes into a
// train.Handle. It is always installed on train-disk, because the read
// and write latencies it records are the end-to-end data stall; the
// tracer, when set, additionally keeps one span per call.
type timedBackend struct {
	train.Backend
	cs   *clientStats
	lat  *segment
	seen *keySet
}

func (b *timedBackend) NewHandle() (train.Handle, error) {
	h, err := b.Backend.NewHandle()
	if err != nil {
		return nil, err
	}
	return &timedHandle{h: h, b: b, caller: int32(b.cs.nextCaller.Add(1))}, nil
}

type timedHandle struct {
	h      train.Handle
	b      *timedBackend
	caller int32
	step   int64
}

func (t *timedHandle) done(op int, name uint8, keys int, t0 time.Time) time.Duration {
	d := time.Since(t0)
	t.b.cs.calls.add(op, keys, d)
	t.b.cs.tr.record(name, t.caller, t.step, t0)
	return d
}

func (t *timedHandle) Get(key uint64, dst []float32) error {
	t.step = t.b.cs.stepSeq.Add(1)
	t0 := time.Now()
	err := t.h.Get(key, dst)
	t.b.lat.read.add(t.done(opGet, spanGet, 1, t0))
	t.b.seen.add(key)
	return err
}

func (t *timedHandle) GetBatch(keys []uint64, dst []float32) error {
	t.step = t.b.cs.stepSeq.Add(1)
	t0 := time.Now()
	err := t.h.GetBatch(keys, dst)
	t.b.lat.read.add(t.done(opGetBatch, spanGetBatch, len(keys), t0))
	for _, k := range keys {
		t.b.seen.add(k)
	}
	return err
}

func (t *timedHandle) Put(key uint64, val []float32) error {
	t0 := time.Now()
	err := t.h.Put(key, val)
	t.b.lat.write.add(t.done(opPut, spanPut, 1, t0))
	return err
}

func (t *timedHandle) PutBatch(keys []uint64, vals []float32) error {
	t0 := time.Now()
	err := t.h.PutBatch(keys, vals)
	t.b.lat.write.add(t.done(opPutBatch, spanPutBatch, len(keys), t0))
	return err
}

func (t *timedHandle) Peek(key uint64, dst []float32) (bool, error) {
	t0 := time.Now()
	ok, err := t.h.Peek(key, dst)
	t.done(opPeek, spanPeek, 1, t0)
	return ok, err
}

func (t *timedHandle) Lookahead(keys []uint64) {
	t0 := time.Now()
	t.h.Lookahead(keys)
	t.done(opLookahead, spanLookahead, len(keys), t0)
	t.b.cs.hinted.Add(int64(len(keys)))
}

func (t *timedHandle) Close() { t.h.Close() }

// keySet is a concurrent bitmap over a dense key space.
type keySet struct{ w []atomic.Uint64 }

func newKeySet(n uint64) *keySet { return &keySet{w: make([]atomic.Uint64, (n+63)/64)} }

func (s *keySet) add(k uint64) {
	if i := k / 64; i < uint64(len(s.w)) {
		s.w[i].Or(1 << (k % 64))
	}
}

// sample returns every stride-th member, in ascending order, and the
// member count.
func (s *keySet) sample(want int) ([]uint64, int) {
	n := 0
	for i := range s.w {
		n += bits.OnesCount64(s.w[i].Load())
	}
	stride := max(n/want, 1)
	var out []uint64
	j := 0
	for i := range s.w {
		for w := s.w[i].Load(); w != 0; w &= w - 1 {
			if j%stride == 0 && len(out) < want {
				out = append(out, uint64(i)*64+uint64(bits.TrailingZeros64(w)))
			}
			j++
		}
	}
	return out, n
}

// --- kv.Store wrapper (server side) ---

// kvStats times the calls the server makes into a node's store while on
// is set.
type kvStats struct {
	on                           *atomic.Bool
	get, getBatch, put, putBatch lat
	calls                        callStats
}

// timedStore wraps the store an Opener returns so that it sits below the
// server's hot tier and times every call the server makes into kv. It
// forwards every optional interface the server and kv.WrapCached assert
// (see wrap_test.go), so the traced run runs the same program.
type timedStore struct {
	kv.Store
	st *kvStats
	tr *tracer
	id atomic.Int32
}

func newTimedStore(inner kv.Store, st *kvStats, tr *tracer) *timedStore {
	return &timedStore{Store: inner, st: st, tr: tr}
}

func (s *timedStore) Checkpoint() error {
	if cp, ok := s.Store.(kv.Checkpointer); ok {
		return cp.Checkpoint()
	}
	return nil
}

func (s *timedStore) Stats() faster.StatsSnapshot {
	if sr, ok := s.Store.(kv.StatsReporter); ok {
		return sr.Stats()
	}
	return faster.StatsSnapshot{}
}

func (s *timedStore) Shards() int {
	if sh, ok := s.Store.(kv.Sharded); ok {
		return sh.Shards()
	}
	return 1
}

func (s *timedStore) StalenessBound() int64 {
	if bd, ok := s.Store.(kv.Bounded); ok {
		return bd.StalenessBound()
	}
	return -1
}

func (s *timedStore) SetStalenessBound(b int64) {
	if bd, ok := s.Store.(kv.Bounded); ok {
		bd.SetStalenessBound(b)
	}
}

// NewSession returns a session wrapper with exactly the optional
// session interfaces of the inner session.
func (s *timedStore) NewSession() (kv.Session, error) {
	in, err := s.Store.NewSession()
	if err != nil {
		return nil, err
	}
	t := &timedSession{in: in, s: s, conn: -s.id.Add(1)}
	_, batch := in.(kv.CtxBatchSession)
	_, look := in.(kv.LookaheadSession)
	switch {
	case batch && look:
		return timedBatchLookSession{timedBatchSession{t}}, nil
	case batch:
		return timedBatchSession{t}, nil
	case look:
		return timedLookSession{t}, nil
	}
	return t, nil
}

// timedSession forwards the base session plus PeekSession and
// CtxSession, which every faster session has.
type timedSession struct {
	in   kv.Session
	s    *timedStore
	conn int32 // negative: server-side store sessions
}

func (t *timedSession) done(op int, name uint8, keys int, l *lat, t0 time.Time) {
	if !t.s.st.on.Load() {
		return
	}
	d := time.Since(t0)
	t.s.st.calls.add(op, keys, d)
	if l != nil {
		l.add(d)
	}
	t.s.tr.record(name, t.conn, 0, t0)
}

func (t *timedSession) Get(key uint64, dst []byte) (bool, error) {
	t0 := time.Now()
	ok, err := t.in.Get(key, dst)
	t.done(opGet, spanKVGet, 1, &t.s.st.get, t0)
	return ok, err
}

func (t *timedSession) GetCtx(ctx context.Context, key uint64, dst []byte) (bool, error) {
	t0 := time.Now()
	ok, err := kv.SessionGetCtx(ctx, t.in, key, dst)
	t.done(opGet, spanKVGet, 1, &t.s.st.get, t0)
	return ok, err
}

func (t *timedSession) Peek(key uint64, dst []byte) (bool, error) {
	t0 := time.Now()
	ok, err := kv.SessionPeek(t.in, key, dst)
	t.done(opPeek, spanKVPeek, 1, nil, t0)
	return ok, err
}

func (t *timedSession) Put(key uint64, val []byte) error {
	t0 := time.Now()
	err := t.in.Put(key, val)
	t.done(opPut, spanKVPut, 1, &t.s.st.put, t0)
	return err
}

func (t *timedSession) Delete(key uint64) error           { return t.in.Delete(key) }
func (t *timedSession) Prefetch(key uint64) (bool, error) { return t.in.Prefetch(key) }
func (t *timedSession) Close()                            { t.in.Close() }

type timedBatchSession struct{ *timedSession }

func (t timedBatchSession) GetBatch(keys []uint64, vals []byte, found []bool) error {
	t0 := time.Now()
	err := t.in.(kv.BatchSession).GetBatch(keys, vals, found)
	t.done(opGetBatch, spanKVGetBatch, len(keys), &t.s.st.getBatch, t0)
	return err
}

func (t timedBatchSession) GetBatchCtx(ctx context.Context, keys []uint64, vals []byte, found []bool) error {
	t0 := time.Now()
	err := t.in.(kv.CtxBatchSession).GetBatchCtx(ctx, keys, vals, found)
	t.done(opGetBatch, spanKVGetBatch, len(keys), &t.s.st.getBatch, t0)
	return err
}

func (t timedBatchSession) PutBatch(keys []uint64, vals []byte) error {
	t0 := time.Now()
	err := t.in.(kv.BatchSession).PutBatch(keys, vals)
	t.done(opPutBatch, spanKVPutBatch, len(keys), &t.s.st.putBatch, t0)
	return err
}

func lookahead(t *timedSession, keys []uint64) (int, error) {
	t0 := time.Now()
	n, err := t.in.(kv.LookaheadSession).Lookahead(keys)
	t.done(opLookahead, spanKVLookahead, len(keys), nil, t0)
	return n, err
}

type timedLookSession struct{ *timedSession }

func (t timedLookSession) Lookahead(keys []uint64) (int, error) {
	return lookahead(t.timedSession, keys)
}

type timedBatchLookSession struct{ timedBatchSession }

func (t timedBatchLookSession) Lookahead(keys []uint64) (int, error) {
	return lookahead(t.timedSession, keys)
}

// --- net.Listener wrapper (server side) ---

// wireStats counts what crosses the server's connections while on is set.
type wireStats struct {
	on                *atomic.Bool
	bytesIn, bytesOut atomic.Int64
	reads, writes     atomic.Int64
}

// countingListener wraps every accepted connection so the server's reads
// and writes are counted (and, traced, recorded as spans).
type countingListener struct {
	net.Listener
	st   *wireStats
	tr   *tracer
	next atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l, id: l.next.Add(1)}, nil
}

type countingConn struct {
	net.Conn
	l  *countingListener
	id int32
}

// Read counts the bytes of a frame arriving. Its span is the instant the
// read returns: the time a read spends blocked is the connection idling
// between the client's frames, not work.
func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.l.st.on.Load() {
		c.l.st.reads.Add(1)
		c.l.st.bytesIn.Add(int64(n))
		c.l.tr.record(spanWireRead, c.id, 0, time.Now())
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	if c.l.st.on.Load() {
		c.l.st.writes.Add(1)
		c.l.st.bytesOut.Add(int64(n))
		c.l.tr.record(spanWireWrite, c.id, 0, t0)
	}
	return n, err
}
