package driver

import (
	"context"
	"testing"

	"github.com/llm-db/mlkv-go/internal/core"
	"github.com/llm-db/mlkv-go/internal/kv"
)

// TestKVSessionRMWAllocs pins that a local RMW allocates nothing per call,
// on an existing key and on a first touch that runs the initializer (one
// that allocates nothing itself).
func TestKVSessionRMWAllocs(t *testing.T) {
	const dim = 8
	var init core.Initializer = func(key uint64, dst []float32) {
		for i := range dst {
			dst[i] = float32(key)
		}
	}
	b, err := openKVBackend(t.TempDir(), kv.EngineFaster, Config{
		Dim: dim, ExpectedKeys: 1 << 12, Init: init,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s, err := b.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	grad := make([]float32, dim)
	if err := s.RMW(ctx, 1, grad, 0.5); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := s.RMW(ctx, 1, grad, 0.5); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RMW of an existing key: %v allocs/op, want 0", n)
	}
	key := uint64(100)
	if n := testing.AllocsPerRun(100, func() {
		key++
		if err := s.RMW(ctx, key, grad, 0.5); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("first-touch RMW: %v allocs/op, want 0", n)
	}
}

// TestClockFreeEngineHasNoLookaheadPool pins that a clock-free engine,
// whose sessions ignore hints, starts no lookahead workers: Lookahead is
// counted and returns.
func TestClockFreeEngineHasNoLookaheadPool(t *testing.T) {
	for _, engine := range []string{kv.EngineLSM, kv.EngineBPTree} {
		b, err := openKVBackend(t.TempDir(), engine, Config{Dim: 4, ExpectedKeys: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if b.look != nil {
			t.Fatalf("%s: lookahead pool built for an engine that ignores hints", engine)
		}
		s, err := b.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Lookahead([]uint64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.LookaheadCalls != 1 || st.PrefetchDropped != 0 {
			t.Fatalf("%s: stats %d calls %d dropped, want 1 and 0", engine, st.LookaheadCalls, st.PrefetchDropped)
		}
		s.Close()
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
