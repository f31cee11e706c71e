package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/llm-db/mlkv-go/internal/util"
)

func testShardedTable(t *testing.T, dim, shards int, bound int64) *Table {
	t.Helper()
	tbl, err := OpenTable(Options{
		Dir:            t.TempDir(),
		Dim:            dim,
		Shards:         shards,
		StalenessBound: bound,
		MemoryBytes:    1 << 20,
		RecordsPerPage: 64,
		Init:           UniformInit(0.1, 42),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
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
	// The router's placement must be exactly util.ShardOf so every layer
	// (core, kv adapter) agrees on which shard owns a key.
	tbl := testShardedTable(t, 4, 4, BoundDisabled)
	for k := uint64(0); k < 1000; k++ {
		if got, want := tbl.shardOf(k), util.ShardOf(k, 4); got != want {
			t.Fatalf("table shardOf(%d)=%d, util.ShardOf=%d", k, got, want)
		}
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
	tbl := testShardedTable(t, dim, shards, BoundASP)

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
			s, err := tbl.NewSession()
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
	tbl := testShardedTable(t, dim, 4, BoundDisabled)
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	const dim = 4
	tbl := testShardedTable(t, dim, 4, BoundDisabled)
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 2000
	val := []float32{1, 2, 3, 4}
	got := make([]float32, dim)
	for k := uint64(0); k < n; k++ {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
		if err := s.Get(k, got); err != nil {
			t.Fatal(err)
		}
	}
	merged := tbl.StoreStats()
	if merged.Puts != n {
		t.Fatalf("merged Puts = %d, want %d", merged.Puts, n)
	}
	if merged.Gets != n {
		t.Fatalf("merged Gets = %d, want %d", merged.Gets, n)
	}
	// The merged view must equal the element-wise sum over shards, and the
	// traffic must actually be spread: no shard may hold everything.
	var sumGets, sumPuts int64
	for _, st := range tbl.Stores() {
		snap := st.Stats()
		sumGets += snap.Gets
		sumPuts += snap.Puts
		if snap.Puts == n {
			t.Fatal("all puts landed on one shard; router is not partitioning")
		}
	}
	if sumGets != merged.Gets || sumPuts != merged.Puts {
		t.Fatalf("per-shard sums (%d gets, %d puts) != merged (%d, %d)",
			sumGets, sumPuts, merged.Gets, merged.Puts)
	}
	if len(tbl.Stores()) != 4 || tbl.Shards() != 4 {
		t.Fatalf("expected 4 shards, got Stores=%d Shards=%d", len(tbl.Stores()), tbl.Shards())
	}
}

func TestShardedCheckpointRecovery(t *testing.T) {
	const dim = 4
	dir := t.TempDir()
	opts := Options{
		Dir: dir, Dim: dim, Shards: 4,
		MemoryBytes: 1 << 20, RecordsPerPage: 64,
	}
	tbl, err := OpenTable(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tbl.NewSession()
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
	if err := tbl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	tbl2, err := OpenTable(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	s2, err := tbl2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
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
	tbl, err := OpenTable(Options{Dir: dir, Dim: 4, Shards: 4, MemoryBytes: 1 << 20, RecordsPerPage: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	if _, err := OpenTable(Options{Dir: dir, Dim: 4, Shards: 2, MemoryBytes: 1 << 20, RecordsPerPage: 64}); err == nil {
		t.Fatal("reopening a 4-shard table with 2 shards must fail")
	}
	// The recorded count still opens.
	tbl2, err := OpenTable(Options{Dir: dir, Dim: 4, Shards: 4, MemoryBytes: 1 << 20, RecordsPerPage: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl2.Close()
}

func TestShardingRefusedOnUnshardedData(t *testing.T) {
	// A pre-sharding table directory (hlog.dat at the root, no SHARDS
	// metadata) must not silently reshard.
	dir := t.TempDir()
	tbl, err := OpenTable(Options{Dir: dir, Dim: 4, MemoryBytes: 1 << 20, RecordsPerPage: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	// Simulate a pre-sharding directory by dropping the metadata file.
	if err := os.Remove(filepath.Join(dir, util.ShardsMetaFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTable(Options{Dir: dir, Dim: 4, Shards: 4, MemoryBytes: 1 << 20, RecordsPerPage: 64}); err == nil {
		t.Fatal("sharding a directory holding unsharded data must fail")
	}
}

func TestShardedLookaheadRoutes(t *testing.T) {
	const dim = 4
	tbl := testShardedTable(t, dim, 4, 4)
	s, err := tbl.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
	if err := s.Lookahead(keys, DestStorageBuffer, nil); err != nil {
		t.Fatal(err)
	}
}
