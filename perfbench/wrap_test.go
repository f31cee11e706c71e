package main

import (
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/llm-db/mlkv-go/internal/kv"
)

// storeInterfaces are the optional Store interfaces the server, the
// registry and kv.WrapCached assert on the store an Opener returns.
var storeInterfaces = map[string]reflect.Type{
	"Checkpointer":       reflect.TypeFor[kv.Checkpointer](),
	"StatsReporter":      reflect.TypeFor[kv.StatsReporter](),
	"Sharded":            reflect.TypeFor[kv.Sharded](),
	"Bounded":            reflect.TypeFor[kv.Bounded](),
	"CacheStatsReporter": reflect.TypeFor[kv.CacheStatsReporter](),
	"BatchCallReporter":  reflect.TypeFor[kv.BatchCallReporter](),
}

// sessionInterfaces are the optional Session interfaces the server and
// kv's Session* helpers assert.
var sessionInterfaces = map[string]reflect.Type{
	"BatchSession":     reflect.TypeFor[kv.BatchSession](),
	"PeekSession":      reflect.TypeFor[kv.PeekSession](),
	"LookaheadSession": reflect.TypeFor[kv.LookaheadSession](),
	"CtxSession":       reflect.TypeFor[kv.CtxSession](),
	"CtxBatchSession":  reflect.TypeFor[kv.CtxBatchSession](),
}

func implemented(v any, set map[string]reflect.Type) map[string]bool {
	out := map[string]bool{}
	for name, it := range set {
		out[name] = reflect.TypeOf(v).Implements(it)
	}
	return out
}

// The traced run must run the same program as the untraced one: the
// timing store must satisfy exactly the optional interfaces of the store
// it wraps, and so must its sessions, for every store shape the benchmark
// opens.
func TestTimedStoreKeepsInterfaceSet(t *testing.T) {
	for _, shards := range []int{1, serveShards} {
		inner, err := kv.OpenEngine("", kv.ShardedConfig{
			Dir: t.TempDir(), Shards: shards, ValueSize: serveDim * 4,
			MemoryBytes: 1 << 20, ExpectedKeys: 1024, StalenessBound: -1,
		}, "mlkv")
		if err != nil {
			t.Fatal(err)
		}
		wrapped := newTimedStore(inner, &kvStats{on: new(atomic.Bool)}, nil)
		if got, want := implemented(wrapped, storeInterfaces), implemented(inner, storeInterfaces); !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: store interfaces wrapped %v, unwrapped %v", shards, got, want)
		}
		is, err := inner.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		ws, err := wrapped.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := implemented(ws, sessionInterfaces), implemented(is, sessionInterfaces); !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: session interfaces wrapped %v, unwrapped %v", shards, got, want)
		}
		// The hot tier the server layers on top must see the same store.
		cached := kv.WrapCached(wrapped, 16)
		if got, want := implemented(cached, storeInterfaces), implemented(kv.WrapCached(inner, 16), storeInterfaces); !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: cached store interfaces wrapped %v, unwrapped %v", shards, got, want)
		}
		is.Close()
		ws.Close()
		if err := inner.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// The wrapper forwards data unchanged and counts only while on.
func TestTimedStoreForwards(t *testing.T) {
	inner, err := kv.OpenEngine("", kv.ShardedConfig{
		Dir: t.TempDir(), Shards: serveShards, ValueSize: serveDim * 4,
		MemoryBytes: 1 << 20, ExpectedKeys: 1024, StalenessBound: -1,
	}, "mlkv")
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	st := &kvStats{on: new(atomic.Bool)}
	s, err := newTimedStore(inner, st, nil).NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []uint64{3, 5, 9}
	vals := make([]byte, len(keys)*serveDim*4)
	for i := range vals {
		vals[i] = byte(i)
	}
	if err := kv.SessionPutBatch(s, serveDim*4, keys, vals); err != nil {
		t.Fatal(err)
	}
	st.on.Store(true)
	got := make([]byte, len(vals))
	found := make([]bool, len(keys))
	if err := kv.SessionGetBatch(s, serveDim*4, keys, got, found); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) || found[0] != true {
		t.Fatalf("GetBatch through the wrapper returned other bytes")
	}
	if n := st.calls.calls[opPutBatch].Load(); n != 0 {
		t.Errorf("PutBatch counted while off: %d", n)
	}
	if n := st.calls.calls[opGetBatch].Load(); n != 1 {
		t.Errorf("GetBatch calls = %d, want 1", n)
	}
}
