package kv

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/llm-db/mlkv-go/internal/faster"
	"github.com/llm-db/mlkv-go/internal/lsm"
)

func openShardSet(t *testing.T, shards, vs int) Store {
	return openShardSetBound(t, shards, vs, -1)
}

// openEngine opens a clock-free engine store through OpenEngine, left
// for the caller to close.
func openEngine(t *testing.T, engine string, shards, vs int) Store {
	t.Helper()
	st, err := OpenEngine(engine, ShardedConfig{
		Dir: t.TempDir(), Shards: shards, ValueSize: vs, StalenessBound: -1,
	}, engine)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func openShardSetBound(t *testing.T, shards, vs int, bound int64) Store {
	t.Helper()
	set := make([]*faster.Store, shards)
	for i := range set {
		st, err := faster.Open(faster.Config{
			Dir: t.TempDir(), ValueSize: vs, RecordsPerPage: 64,
			MemPages: 8, MutablePages: 3, StalenessBound: bound,
		})
		if err != nil {
			t.Fatal(err)
		}
		set[i] = st
	}
	return WrapFasterShards(set, "sharded")
}

// TestBatchHelpers drives SessionGetBatch/SessionPutBatch through the
// shard router over every engine family — the hybrid log at 1 and 4
// shards, a single wrapped LSM tree, and LSM and B+tree at 4 shards via
// OpenEngine — asserting identical observable behavior: values
// round-trip in batches below and above util.BatchFanoutMin, duplicate
// keys in one batch read the same value and the last write wins, missing
// keys report found=false with zeroed slots, deletes are visible to
// batch reads.
func TestBatchHelpers(t *testing.T) {
	const vs = 16
	stores := map[string]Store{
		"sharded":  openShardSet(t, 4, vs),
		"single":   openShardSet(t, 1, vs), // WrapFaster: one native batch
		"lsm-4":    openEngine(t, EngineLSM, 4, vs),
		"bptree-4": openEngine(t, EngineBPTree, 4, vs),
	}
	ls, err := lsm.Open(lsm.Config{Dir: t.TempDir(), ValueSize: vs, MemtableBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stores["lsm-fallback"] = WrapLSM(ls)

	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			defer store.Close()
			s, err := store.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Every router session is natively batched and ctx-aware; a
			// clock-free engine's reads simply never block.
			if _, native := s.(CtxBatchSession); !native {
				t.Fatalf("%s: CtxBatchSession not implemented", name)
			}

			const n = 300 // above util.BatchFanoutMin so the fan-out path runs
			keys := make([]uint64, n)
			vals := make([]byte, n*vs)
			for i := range keys {
				keys[i] = uint64(i * 7)
				for j := 0; j < vs; j++ {
					vals[i*vs+j] = byte(i + j)
				}
			}
			if err := SessionPutBatch(s, vs, keys, vals); err != nil {
				t.Fatal(err)
			}

			got := make([]byte, n*vs)
			found := make([]bool, n)
			if err := SessionGetBatch(s, vs, keys, got, found); err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				if !found[i] {
					t.Fatalf("key %d missing", keys[i])
				}
			}
			if !bytes.Equal(got, vals) {
				t.Fatal("batch values differ from what was written")
			}

			// A batch below util.BatchFanoutMin (serial shard groups) with
			// a duplicate key: the last write wins, and both read slots of
			// the duplicate carry it.
			small := []uint64{keys[10], keys[11], keys[10], keys[12]}
			sv := make([]byte, len(small)*vs)
			for i := range small {
				sv[i*vs] = byte(0xa0 + i)
			}
			if err := SessionPutBatch(s, vs, small, sv); err != nil {
				t.Fatal(err)
			}
			sg := make([]byte, len(small)*vs)
			sf := make([]bool, len(small))
			if err := SessionGetBatch(s, vs, small, sg, sf); err != nil {
				t.Fatal(err)
			}
			for i, want := range []byte{0xa2, 0xa1, 0xa2, 0xa3} {
				if !sf[i] || sg[i*vs] != want {
					t.Fatalf("small batch slot %d: found=%v val=%#x, want %#x", i, sf[i], sg[i*vs], want)
				}
			}

			// Deleted and never-written keys: found=false, zeroed slots.
			if err := s.Delete(keys[3]); err != nil {
				t.Fatal(err)
			}
			probe := []uint64{keys[3], 1<<60 + 9, keys[4]}
			pv := bytes.Repeat([]byte{0xee}, len(probe)*vs) // dirt the buffer
			pf := make([]bool, len(probe))
			if err := SessionGetBatch(s, vs, probe, pv, pf); err != nil {
				t.Fatal(err)
			}
			if pf[0] || pf[1] || !pf[2] {
				t.Fatalf("found = %v, want [false false true]", pf)
			}
			for i := 0; i < 2*vs; i++ {
				if pv[i] != 0 {
					t.Fatalf("missing key slot not zeroed at byte %d", i)
				}
			}

			// The same above util.BatchFanoutMin: missing keys spread over
			// every shard, each appearing twice, between present ones.
			big := make([]uint64, 0, 64)
			for i := 0; len(big) < 64; i++ {
				miss := uint64(1<<61 + i)
				big = append(big, miss, keys[20+i], miss)
			}
			big = big[:64]
			bv := bytes.Repeat([]byte{0xee}, len(big)*vs)
			bf := make([]bool, len(big))
			if err := SessionGetBatch(s, vs, big, bv, bf); err != nil {
				t.Fatal(err)
			}
			for i, k := range big {
				slot := bv[i*vs : (i+1)*vs]
				if k >= 1<<61 {
					if bf[i] || !bytes.Equal(slot, make([]byte, vs)) {
						t.Fatalf("missing key %d at %d: found=%v slot=%x", k, i, bf[i], slot)
					}
					continue
				}
				j := int(k / 7)
				if !bf[i] || !bytes.Equal(slot, vals[j*vs:(j+1)*vs]) {
					t.Fatalf("key %d at %d: found=%v", k, i, bf[i])
				}
			}

			// Size validation.
			if err := SessionGetBatch(s, vs, keys, got[:1], found); err == nil {
				t.Fatal("undersized vals accepted")
			}
			if err := SessionPutBatch(s, vs, keys, vals[:1]); err == nil {
				t.Fatal("undersized vals accepted")
			}
		})
	}
}

// TestSessionPeekAndLookahead drives the optional Peek/Lookahead seams
// over a store that implements them natively (sharded FASTER) and one
// that relies on the helpers' fallbacks (LSM).
func TestSessionPeekAndLookahead(t *testing.T) {
	const vs = 8
	stores := map[string]Store{"sharded": openShardSet(t, 4, vs)}
	ls, err := lsm.Open(lsm.Config{Dir: t.TempDir(), ValueSize: vs, MemtableBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stores["lsm-fallback"] = WrapLSM(ls)

	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			defer store.Close()
			s, err := store.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			keys := []uint64{2, 40, 77, 1 << 33}
			val := make([]byte, vs)
			for _, k := range keys {
				for i := range val {
					val[i] = byte(k) + byte(i)
				}
				if err := s.Put(k, val); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]byte, vs)
			for _, k := range keys {
				found, err := SessionPeek(s, k, got)
				if err != nil || !found {
					t.Fatalf("peek %d: found=%v err=%v", k, found, err)
				}
				if got[0] != byte(k) {
					t.Fatalf("peek %d read %d", k, got[0])
				}
			}
			if found, err := SessionPeek(s, 0xdead_beef, got); err != nil || found {
				t.Fatalf("peek of missing key: found=%v err=%v", found, err)
			}
			if _, err := SessionLookahead(s, keys); err != nil {
				t.Fatalf("lookahead: %v", err)
			}
		})
	}
}

// TestShardedBatchBlockingBoundSerial covers the GetBatch ordering gate:
// under BSP (bound 0) the shard router must run batches serially in
// caller order, and a balanced get-then-put loop must make progress.
func TestShardedBatchBlockingBoundSerial(t *testing.T) {
	const vs = 8
	store := openShardSetBound(t, 4, vs, 0)
	defer store.Close()
	s, err := store.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 64 // above util.BatchFanoutMin: without the gate this would fan out
	keys := make([]uint64, n)
	vals := make([]byte, n*vs)
	for i := range keys {
		keys[i] = uint64(i * 3)
		vals[i*vs] = byte(i)
	}
	if err := SessionPutBatch(s, vs, keys, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n*vs)
	found := make([]bool, n)
	for round := 0; round < 3; round++ {
		if err := SessionGetBatch(s, vs, keys, got, found); err != nil {
			t.Fatal(err)
		}
		for i := range keys {
			if !found[i] || got[i*vs] != byte(i) {
				t.Fatalf("round %d key %d: found=%v val=%d", round, keys[i], found[i], got[i*vs])
			}
		}
		// Release the tokens the clocked reads acquired.
		if err := SessionPutBatch(s, vs, keys, got); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedBatchConcurrent exercises the parallel fan-out from many
// sessions at once over every engine family at 4 shards (meaningful under
// -race).
func TestShardedBatchConcurrent(t *testing.T) {
	const vs, workers, batch = 8, 4, 64
	stores := map[string]Store{
		"faster": openShardSet(t, 4, vs),
		"lsm":    openEngine(t, EngineLSM, 4, vs),
		"bptree": openEngine(t, EngineBPTree, 4, vs),
	}
	for name, store := range stores {
		t.Run(name, func(t *testing.T) {
			defer store.Close()
			var wg sync.WaitGroup
			errCh := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errCh <- batchWorker(store, w, vs, batch)
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// batchWorker round-trips one worker's disjoint key range through batch
// writes and reads.
func batchWorker(store Store, w, vs, batch int) error {
	s, err := store.NewSession()
	if err != nil {
		return err
	}
	defer s.Close()
	keys := make([]uint64, batch)
	vals := make([]byte, batch*vs)
	for i := range keys {
		keys[i] = uint64(w*batch + i)
		vals[i*vs] = byte(w)
	}
	for round := 0; round < 20; round++ {
		if err := SessionPutBatch(s, vs, keys, vals); err != nil {
			return err
		}
		got := make([]byte, batch*vs)
		found := make([]bool, batch)
		if err := SessionGetBatch(s, vs, keys, got, found); err != nil {
			return err
		}
		for i := range keys {
			if !found[i] || got[i*vs] != byte(w) {
				return fmt.Errorf("worker %d round %d: key %d found=%v val=%d",
					w, round, keys[i], found[i], got[i*vs])
			}
		}
	}
	return nil
}
