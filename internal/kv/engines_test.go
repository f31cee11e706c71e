package kv

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/util"
)

// openEngineStore opens a sharded clock-free engine store through the same
// entry point the driver and server use, closed when the test ends.
func openEngineStore(t *testing.T, engine string, shards, vs int) Store {
	t.Helper()
	st := openEngine(t, engine, shards, vs)
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return st
}

// TestEngineBatchFanOutBounded is the batching regression test: a 256-key
// GetBatch against a 4-shard engine store must reach the engine as at most
// one native batch call per shard — not 256 scalar reads dressed up as a
// batch. Same for PutBatch. The BatchCalls counters sit exactly at the
// lifted-engine boundary, so any regression to per-key fan-out moves them
// by two orders of magnitude.
func TestEngineBatchFanOutBounded(t *testing.T) {
	const (
		shards = 4
		vs     = 16
		n      = 256
	)
	for _, engine := range []string{EngineLSM, EngineBPTree} {
		t.Run(engine, func(t *testing.T) {
			st := openEngineStore(t, engine, shards, vs)
			rep, ok := st.(BatchCallReporter)
			if !ok {
				t.Fatalf("%T does not report engine-level batch calls", st)
			}
			s, err := st.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			r := util.NewRNG(0xfa0)
			keys := make([]uint64, n)
			vals := make([]byte, n*vs)
			found := make([]bool, n)
			for i := range keys {
				keys[i] = r.Uint64() | 1 // spread across all shards
				vals[i*vs] = byte(i)
			}

			g0, p0 := rep.BatchCalls()
			if err := SessionPutBatch(s, vs, keys, vals); err != nil {
				t.Fatal(err)
			}
			g1, p1 := rep.BatchCalls()
			if dp := p1 - p0; dp < 1 || dp > shards {
				t.Fatalf("256-key PutBatch issued %d engine batch calls, want 1..%d", dp, shards)
			}
			if g1 != g0 {
				t.Fatalf("PutBatch issued %d engine batch reads", g1-g0)
			}

			read := make([]byte, n*vs)
			if err := SessionGetBatch(s, vs, keys, read, found); err != nil {
				t.Fatal(err)
			}
			g2, p2 := rep.BatchCalls()
			if dg := g2 - g1; dg < 1 || dg > shards {
				t.Fatalf("256-key GetBatch issued %d engine batch calls, want 1..%d", dg, shards)
			}
			if p2 != p1 {
				t.Fatalf("GetBatch issued %d engine batch writes", p2-p1)
			}

			// The fan-out must still be correct, not merely cheap.
			for i := range keys {
				if !found[i] {
					t.Fatalf("key %d missing after PutBatch", keys[i])
				}
				if !bytes.Equal(read[i*vs:(i+1)*vs], vals[i*vs:(i+1)*vs]) {
					t.Fatalf("key %d value mismatch", keys[i])
				}
			}
		})
	}
}

// TestOptionalInterfaceSets pins the exact optional-interface set of every
// store shape OpenEngine builds and of its sessions, because the server,
// the registry and WrapCached branch on them: the hybrid log is Bounded
// and never a BatchCallReporter, a clock-free store is the reverse — the
// registry rejects a blocking bound on a store that is not Bounded — and
// every session is natively batched, peekable and ctx-aware; only a
// hybrid-log session has a native RMW.
func TestOptionalInterfaceSets(t *testing.T) {
	storeIfaces := map[string]reflect.Type{
		"Checkpointer":       reflect.TypeFor[Checkpointer](),
		"StatsReporter":      reflect.TypeFor[StatsReporter](),
		"Sharded":            reflect.TypeFor[Sharded](),
		"Bounded":            reflect.TypeFor[Bounded](),
		"CacheStatsReporter": reflect.TypeFor[CacheStatsReporter](),
		"BatchCallReporter":  reflect.TypeFor[BatchCallReporter](),
	}
	sessionIfaces := map[string]reflect.Type{
		"BatchSession":     reflect.TypeFor[BatchSession](),
		"PeekSession":      reflect.TypeFor[PeekSession](),
		"LookaheadSession": reflect.TypeFor[LookaheadSession](),
		"CtxSession":       reflect.TypeFor[CtxSession](),
		"CtxBatchSession":  reflect.TypeFor[CtxBatchSession](),
		"RMWSession":       reflect.TypeFor[RMWSession](),
	}
	implemented := func(v any, set map[string]reflect.Type) []string {
		var out []string
		for name, it := range set {
			if reflect.TypeOf(v).Implements(it) {
				out = append(out, name)
			}
		}
		slices.Sort(out)
		return out
	}
	// Only the hybrid log has an atomic storage-side RMW.
	wantSession := map[string][]string{
		EngineFaster: {"BatchSession", "CtxBatchSession", "CtxSession", "PeekSession", "RMWSession"},
		EngineLSM:    {"BatchSession", "CtxBatchSession", "CtxSession", "PeekSession"},
		EngineBPTree: {"BatchSession", "CtxBatchSession", "CtxSession", "PeekSession"},
	}
	wantStore := map[string][]string{
		EngineFaster: {"Bounded", "Checkpointer", "Sharded", "StatsReporter"},
		EngineLSM:    {"BatchCallReporter", "Checkpointer", "Sharded", "StatsReporter"},
		EngineBPTree: {"BatchCallReporter", "Checkpointer", "Sharded", "StatsReporter"},
	}
	for _, engine := range []string{EngineFaster, EngineLSM, EngineBPTree} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-%d", engine, shards), func(t *testing.T) {
				st := openEngineStore(t, engine, shards, 8)
				if got := implemented(st, storeIfaces); !slices.Equal(got, wantStore[engine]) {
					t.Errorf("store implements %v, want %v", got, wantStore[engine])
				}
				s, err := st.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if got := implemented(s, sessionIfaces); !slices.Equal(got, wantSession[engine]) {
					t.Errorf("session implements %v, want %v", got, wantSession[engine])
				}
			})
		}
	}
}

// TestShardBudgetSplit pins the one budget split: with fewer expected keys
// than shards each shard's index is still sized from ExpectedKeys (one key
// per shard), not from the hybrid log's 64Ki-bucket default for an
// unsized index.
func TestShardBudgetSplit(t *testing.T) {
	const shards, keys = 4, 2
	st, err := OpenFasterShards(ShardedConfig{
		Dir: t.TempDir(), Shards: shards, ValueSize: 16, ExpectedKeys: keys,
	}, "split")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	one, err := faster.Open(faster.Config{Dir: t.TempDir(), ValueSize: 16, ExpectedKeys: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	want := one.IndexBuckets()
	if want >= 1<<16 {
		t.Fatalf("a one-key store's index has %d buckets", want)
	}
	for i, sh := range st.(fasterStore).stores {
		if got := sh.IndexBuckets(); got != want {
			t.Errorf("shard %d index has %d buckets, want %d (sized for one key)", i, got, want)
		}
	}
}
