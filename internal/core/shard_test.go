package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/kv"
	"github.com/llm-db/mlkv-go/internal/util"
)

func openShardedTable(t *testing.T, dim, shards int, bound int64) *mlkv.Model {
	t.Helper()
	return openTable(t, dim, bound, mlkv.WithShards(shards))
}

// fasterShards opens n hybrid-log stores of dim-4 values and the router
// over them, keeping the stores for per-shard inspection.
func fasterShards(t *testing.T, n int) ([]*faster.Store, kv.Store) {
	t.Helper()
	stores := make([]*faster.Store, n)
	for i := range stores {
		st, err := faster.Open(faster.Config{Dir: t.TempDir(), ValueSize: 16, StalenessBound: core.BoundDisabled})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	router := kv.WrapFasterShards(stores, "sharded")
	t.Cleanup(func() { router.Close() })
	return stores, router
}

func TestShardOfUniformDistribution(t *testing.T) {
	const shards = 8
	const keys = 1 << 20
	counts := make([]int, shards)
	for k := uint64(0); k < keys; k++ {
		sh := util.ShardOf(k, shards)
		if sh < 0 || sh >= shards {
			t.Fatalf("ShardOf(%d, %d) = %d out of range", k, shards, sh)
		}
		counts[sh]++
	}
	mean := float64(keys) / shards
	for sh, c := range counts {
		dev := (float64(c) - mean) / mean
		if dev < -0.02 || dev > 0.02 {
			t.Fatalf("shard %d holds %d keys, %.1f%% from the mean %f", sh, c, dev*100, mean)
		}
	}
	// One shard must collapse to index 0 without hashing.
	if util.ShardOf(12345, 1) != 0 {
		t.Fatal("ShardOf with one shard must return 0")
	}
}

func TestShardOfStableAcrossLayers(t *testing.T) {
	// The router's placement must be exactly util.ShardOf, so every layer
	// that names a key's shard (the router, the server's stats, the
	// cluster's node-local shards) agrees on which store owns it.
	stores, router := fasterShards(t, 4)
	s, err := router.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 16)
	for k := uint64(0); k < 1000; k++ {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range stores {
		fs, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 1000; k++ {
			found, err := fs.Peek(k, val)
			if err != nil {
				t.Fatal(err)
			}
			if owner := util.ShardOf(k, 4); found != (owner == i) {
				t.Fatalf("key %d found=%v on shard %d, util.ShardOf=%d", k, found, i, owner)
			}
		}
		fs.Close()
	}
}

func TestShardedBatchRoundTrip(t *testing.T) {
	const (
		dim     = 8
		shards  = 4
		workers = 4
		batches = 40
		batch   = 64 // >= util.BatchFanoutMin so the parallel fan-out runs
	)
	// ASP: the vector clock is exercised but never blocks. A finite bound
	// would deadlock this access pattern by design: Zipf batches repeat hot
	// keys, every worker reads before writing, and a read of a record at
	// the bound waits for a Put no blocked worker can issue.
	m := openShardedTable(t, dim, shards, core.BoundASP)

	// Each key's value is derived from the key alone, so concurrent
	// writers of the same Zipf-hot key are idempotent and any read can be
	// verified.
	valAt := func(key uint64, i int) float32 {
		return float32(util.Mix64(key)%1000)/1000 + float32(i)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := m.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer s.Close()
			zipf := util.NewScrambledZipf(util.NewRNG(uint64(w)+1), 1<<14, 0.99)
			keys := make([]uint64, batch)
			vals := make([]float32, batch*dim)
			got := make([]float32, batch*dim)
			for b := 0; b < batches; b++ {
				for i := range keys {
					keys[i] = zipf.Next()
					for j := 0; j < dim; j++ {
						vals[i*dim+j] = valAt(keys[i], j)
					}
				}
				if err := s.PutBatch(keys, vals); err != nil {
					errCh <- fmt.Errorf("worker %d PutBatch: %w", w, err)
					return
				}
				if err := s.GetBatch(keys, got); err != nil {
					errCh <- fmt.Errorf("worker %d GetBatch: %w", w, err)
					return
				}
				for i, k := range keys {
					for j := 0; j < dim; j++ {
						if got[i*dim+j] != valAt(k, j) {
							errCh <- fmt.Errorf("worker %d key %d dim %d: got %f want %f",
								w, k, j, got[i*dim+j], valAt(k, j))
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestShardedSingleKeyOpsRoundTrip(t *testing.T) {
	const dim = 4
	s := newSession(t, openShardedTable(t, dim, 4, core.BoundDisabled))
	val := []float32{1, 2, 3, 4}
	got := make([]float32, dim)
	for k := uint64(0); k < 500; k++ {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 500; k++ {
		if err := s.Get(k, got); err != nil {
			t.Fatal(err)
		}
		for i := range val {
			if got[i] != val[i] {
				t.Fatalf("key %d: got %v want %v", k, got, val)
			}
		}
		if found, err := s.Peek(k, got); err != nil || !found {
			t.Fatalf("Peek(%d) = %v, %v", k, found, err)
		}
	}
	// Delete must route to the same shard Put used.
	for k := uint64(0); k < 500; k += 7 {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		if found, _ := s.Peek(k, got); found {
			t.Fatalf("key %d still present after Delete", k)
		}
	}
}

func TestShardedStatsMerge(t *testing.T) {
	const n = 2000
	// Through the public API: one model-wide view, whatever the shard count.
	m := openShardedTable(t, 4, 4, core.BoundDisabled)
	s := newSession(t, m)
	val := []float32{1, 2, 3, 4}
	got := make([]float32, 4)
	for k := uint64(0); k < n; k++ {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
		if err := s.Get(k, got); err != nil {
			t.Fatal(err)
		}
	}
	if st := m.Stats(); st.Puts != n || st.Gets != n {
		t.Fatalf("merged Puts/Gets = %d/%d, want %d/%d", st.Puts, st.Gets, n, n)
	}
	if m.Shards() != 4 {
		t.Fatalf("expected 4 shards, got %d", m.Shards())
	}

	// Under the router: the merged view is the element-wise sum over the
	// shards, and the traffic is actually spread.
	stores, router := fasterShards(t, 4)
	rs, err := router.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	buf := make([]byte, 16)
	for k := uint64(0); k < n; k++ {
		if err := rs.Put(k, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := rs.Get(k, buf); err != nil {
			t.Fatal(err)
		}
	}
	merged := router.(kv.StatsReporter).Stats()
	var sumGets, sumPuts int64
	for _, st := range stores {
		snap := st.Stats()
		sumGets += snap.Gets
		sumPuts += snap.Puts
		if snap.Puts == n {
			t.Fatal("all puts landed on one shard; router is not partitioning")
		}
	}
	if merged.Puts != n || sumGets != merged.Gets || sumPuts != merged.Puts {
		t.Fatalf("per-shard sums (%d gets, %d puts) != merged (%d, %d)",
			sumGets, sumPuts, merged.Gets, merged.Puts)
	}
}

func TestShardedCheckpointRecovery(t *testing.T) {
	const dim = 4
	dir := t.TempDir()
	m := openTableIn(t, dir, dim, mlkv.WithShards(4))
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	val := []float32{9, 8, 7, 6}
	for k := uint64(0); k < 300; k++ {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newSession(t, openTableIn(t, dir, dim, mlkv.WithShards(4)))
	got := make([]float32, dim)
	for k := uint64(0); k < 300; k++ {
		found, err := s2.Peek(k, got)
		if err != nil || !found {
			t.Fatalf("key %d after recovery: found=%v err=%v", k, found, err)
		}
		for i := range val {
			if got[i] != val[i] {
				t.Fatalf("key %d: got %v want %v", k, got, val)
			}
		}
	}
}

func TestShardCountMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	open := func(shards int) (*mlkv.Model, error) {
		return mlkv.Open("t", 4, mlkv.WithDir(dir), mlkv.WithShards(shards), mlkv.WithMemory(1<<20))
	}
	m, err := open(4)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if m, err := open(2); err == nil {
		m.Close()
		t.Fatal("reopening a 4-shard model with 2 shards must fail")
	}
	// The recorded count still opens.
	m, err = open(4)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
}

func TestShardingRefusedOnUnshardedData(t *testing.T) {
	// A pre-sharding model directory (hlog.dat at the root, no SHARDS
	// metadata) must not silently reshard.
	dir := t.TempDir()
	m, err := mlkv.Open("t", 4, mlkv.WithDir(dir), mlkv.WithMemory(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	// Simulate a pre-sharding directory by dropping the metadata file.
	if err := os.Remove(filepath.Join(dir, "t", util.ShardsMetaFile)); err != nil {
		t.Fatal(err)
	}
	if m, err := mlkv.Open("t", 4, mlkv.WithDir(dir), mlkv.WithShards(4), mlkv.WithMemory(1<<20)); err == nil {
		m.Close()
		t.Fatal("sharding a directory holding unsharded data must fail")
	}
}

func TestShardedLookaheadRoutes(t *testing.T) {
	const dim = 4
	m := openShardedTable(t, dim, 4, 4)
	s := newSession(t, m)
	val := []float32{1, 1, 1, 1}
	keys := make([]uint64, 0, 4096)
	for k := uint64(0); k < 4096; k++ {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	// Lookahead across all shards must neither panic nor error; copies
	// only happen for disk-resident records, so just exercise the path.
	if err := s.Lookahead(keys); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.LookaheadCalls != 1 {
		t.Fatalf("LookaheadCalls = %d, want 1", st.LookaheadCalls)
	}
}
