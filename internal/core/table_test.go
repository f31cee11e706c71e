// The tests in this package pin the embedding-table contract — first-touch
// initialization, bounded staleness, sharding, look-ahead, the hot tier —
// on the stack that provides it: a local model opened through the public
// API, which runs the same kv shard router the server does.
package core_test

import (
	"math"
	"sync"
	"testing"
	"time"

	mlkv "github.com/llm-db/mlkv-go"
	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/util"
)

// openTable opens a fresh local model with a 1 MiB buffer and a
// deterministic initializer; opts override the defaults.
func openTable(t *testing.T, dim int, bound int64, opts ...mlkv.Option) *mlkv.Model {
	t.Helper()
	return openTableIn(t, t.TempDir(), dim, append([]mlkv.Option{mlkv.WithStalenessBound(bound)}, opts...)...)
}

// openTableIn opens model "t" under dir (reopening what a previous call
// left there).
func openTableIn(t *testing.T, dir string, dim int, opts ...mlkv.Option) *mlkv.Model {
	t.Helper()
	base := []mlkv.Option{mlkv.WithDir(dir), mlkv.WithMemory(1 << 20), mlkv.WithInitializer(core.UniformInit(0.1, 42))}
	m, err := mlkv.Open("t", dim, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func newSession(t *testing.T, m *mlkv.Model) *mlkv.Session {
	t.Helper()
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestTableGetInitializesFirstTouch(t *testing.T) {
	s := newSession(t, openTable(t, 8, core.BoundDisabled))
	emb := make([]float32, 8)
	if err := s.Get(1, emb); err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, v := range emb {
		if v != 0 {
			nonzero = true
		}
		if v < -0.1 || v >= 0.1 {
			t.Fatalf("init out of range: %v", v)
		}
	}
	if !nonzero {
		t.Fatal("initializer produced all zeros")
	}
	// Same key, same init — deterministic, and what the initializer says.
	emb2 := make([]float32, 8)
	if err := s.Get(1, emb2); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, 8)
	core.UniformInit(0.1, 42)(1, want)
	for i := range emb {
		if emb[i] != emb2[i] || emb[i] != want[i] {
			t.Fatal("initialized embedding unstable")
		}
	}
}

func TestTablePutGetRoundTrip(t *testing.T) {
	s := newSession(t, openTable(t, 4, core.BoundDisabled))
	want := []float32{1.5, -2.25, 3.125, -0.0625}
	if err := s.Put(7, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 4)
	if err := s.Get(7, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dim %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestTableBatchOps(t *testing.T) {
	s := newSession(t, openTable(t, 4, core.BoundDisabled))
	keys := []uint64{1, 2, 3}
	vals := make([]float32, 12)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := s.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 12)
	if err := s.GetBatch(keys, got); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d: got %v want %v", i, got[i], vals[i])
		}
	}
}

func TestTableDimValidation(t *testing.T) {
	s := newSession(t, openTable(t, 4, core.BoundDisabled))
	if err := s.Get(1, make([]float32, 3)); err == nil {
		t.Fatal("wrong dim accepted in Get")
	}
	if err := s.Put(1, make([]float32, 5)); err == nil {
		t.Fatal("wrong dim accepted in Put")
	}
	if err := s.GetBatch([]uint64{1, 2}, make([]float32, 7)); err == nil {
		t.Fatal("wrong batch size accepted")
	}
	if err := s.RMW(1, make([]float32, 3), 1); err == nil {
		t.Fatal("wrong dim accepted in RMW")
	}
}

func TestApplyGradient(t *testing.T) {
	s := newSession(t, openTable(t, 4, core.BoundDisabled))
	if err := s.Put(1, []float32{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RMW(1, []float32{1, 2, 3, 4}, 0.5); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 4)
	if err := s.Get(1, got); err != nil {
		t.Fatal(err)
	}
	want := []float32{0.5, 0, -0.5, -1}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-6 {
			t.Fatalf("dim %d: got %v want %v", i, got[i], want[i])
		}
	}
	// An absent key steps from its first-touch embedding, as on a remote
	// model.
	if err := s.RMW(2, []float32{1, 1, 1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	init := make([]float32, 4)
	core.UniformInit(0.1, 42)(2, init)
	if _, err := s.Peek(2, got); err != nil {
		t.Fatal(err)
	}
	for i := range init {
		if got[i] != init[i]-1 {
			t.Fatalf("first-touch RMW dim %d: got %v want %v", i, got[i], init[i]-1)
		}
	}
}

func TestLookaheadStorageBufferWarmsDiskRecords(t *testing.T) {
	// A 64 KiB buffer holds ~1100 records of dim 8; writing 6000 evicts the
	// early keys to disk.
	m := openTable(t, 8, 4, mlkv.WithMemory(64<<10))
	s := newSession(t, m)
	emb := make([]float32, 8)
	const n = 6000
	for k := uint64(1); k <= n; k++ {
		for i := range emb {
			emb[i] = float32(k)
		}
		if err := s.Put(k, emb); err != nil {
			t.Fatal(err)
		}
	}
	// Prefetch early (cold) keys and wait for the copies to land.
	cold := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := s.Lookahead(cold); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().PrefetchCopies < int64(len(cold)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := m.Stats(); st.PrefetchCopies < int64(len(cold)) {
		t.Fatalf("prefetch copied %d of %d (dropped %d)", st.PrefetchCopies, len(cold), st.PrefetchDropped)
	}
	// The subsequent Gets should be disk-free.
	before := m.Stats().DiskReads
	for _, k := range cold {
		if err := s.Get(k, emb); err != nil {
			t.Fatal(err)
		}
		if emb[0] != float32(k) {
			t.Fatalf("key %d: wrong value after prefetch", k)
		}
		if err := s.Put(k, emb); err != nil { // balance the clock
			t.Fatal(err)
		}
	}
	if after := m.Stats().DiskReads; after != before {
		t.Fatalf("gets after lookahead hit disk %d times", after-before)
	}
}

func TestTableConcurrentTraining(t *testing.T) {
	// Simulated async training: workers Get, compute, Put, with a bound.
	m := openTable(t, 8, 8)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s, err := m.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			r := util.NewRNG(seed)
			emb := make([]float32, 8)
			for i := 0; i < 500; i++ {
				k := r.Uint64n(200) + 1
				if err := s.Get(k, emb); err != nil {
					t.Error(err)
					return
				}
				for j := range emb {
					emb[j] += 0.001
				}
				if err := s.Put(k, emb); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
}

func TestTableCheckpointRestore(t *testing.T) {
	dir := t.TempDir()
	m := openTableIn(t, dir, 4, mlkv.WithStalenessBound(core.BoundDisabled))
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newSession(t, openTableIn(t, dir, 4, mlkv.WithStalenessBound(core.BoundDisabled)))
	got := make([]float32, 4)
	if err := s2.Get(1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("restored embedding wrong: %v", got)
	}
}

func TestOpenTableValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := mlkv.Open("t", 0, mlkv.WithDir(dir)); err == nil {
		t.Fatal("Dim 0 accepted")
	}
	if _, err := mlkv.Open("", 4, mlkv.WithDir(dir)); err == nil {
		t.Fatal("empty model id accepted")
	}
	if _, err := mlkv.Open("t", 4, mlkv.WithDir(dir), mlkv.WithShards(-1)); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

func TestBoundModesSmoke(t *testing.T) {
	for _, bound := range []int64{core.BoundDisabled, core.BoundBSP, 4, core.BoundASP} {
		m := openTable(t, 4, bound)
		if got := m.StalenessBound(); got != bound {
			t.Fatalf("bound %d: model reports %d", bound, got)
		}
		// The hybrid log names itself by whether its vector clock runs.
		if want := map[bool]string{true: "mlkv", false: "faster"}[bound >= 0]; m.EngineName() != want {
			t.Fatalf("bound %d: engine %q, want %q", bound, m.EngineName(), want)
		}
		s, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		emb := make([]float32, 4)
		for k := uint64(1); k <= 50; k++ {
			if err := s.Get(k, emb); err != nil {
				t.Fatalf("bound %d: %v", bound, err)
			}
			if err := s.Put(k, emb); err != nil {
				t.Fatalf("bound %d: %v", bound, err)
			}
		}
		s.Close()
	}
}

// TestActiveSessions covers the serving layer's lifecycle hook: the count
// tracks opens and closes, and double-close does not double-count.
func TestActiveSessions(t *testing.T) {
	m := openTable(t, 4, core.BoundDisabled)
	if n := m.ActiveSessions(); n != 0 {
		t.Fatalf("fresh model has %d sessions", n)
	}
	var sessions []*mlkv.Session
	for i := 0; i < 3; i++ {
		s, err := m.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		if n := m.ActiveSessions(); n != int64(i+1) {
			t.Fatalf("after %d opens: count %d", i+1, n)
		}
	}
	sessions[0].Close()
	sessions[0].Close() // idempotent
	if n := m.ActiveSessions(); n != 2 {
		t.Fatalf("after double-close: count %d", n)
	}
	for _, s := range sessions[1:] {
		s.Close()
	}
	if n := m.ActiveSessions(); n != 0 {
		t.Fatalf("after all closes: count %d", n)
	}
}
