package faster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/util"
)

// keyClass is where a key's newest version lives right before an
// operation: one of the four regions, absent, or deleted.
type keyClass int

const (
	classMutable keyClass = iota
	classFuzzy
	classReadOnly
	classDisk
	classAbsent
	classTombstone
	numClasses
)

var classNames = [numClasses]string{"mutable", "fuzzy", "read-only", "disk", "absent", "tombstone"}

// classify reports where key's chain head lives, without side effects
// beyond a disk read.
func classify(t *testing.T, s *Session, key uint64) keyClass {
	t.Helper()
	s.es.Protect()
	defer s.es.Unprotect()
	var hit chainHit
	err := s.findKey(&hit, key, false)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case hit.addr == InvalidAddr:
		return classAbsent
	case hit.tomb:
		return classTombstone
	}
	return keyClass(hit.reg)
}

// withoutFlush zeroes the counters the background flusher drives: when a
// frozen page reaches the file depends on goroutine scheduling, not on
// the operations issued.
func withoutFlush(s StatsSnapshot) StatsSnapshot {
	s.FlushedPages, s.BytesFlushed, s.GroupCommits, s.FlushPaceStalls = 0, 0, 0, 0
	return s
}

// TestBatchMatchesPerKey drives two identical stores with the same
// operation sequence, one through per-key Get/Put and the other through
// GetBatch/PutBatch, and requires byte-identical values, identical found
// flags and identical final counters. The key space is ~4× the in-memory
// window and batches draw from all of it plus never-written keys, with
// duplicates and interleaved deletes, so every batch mixes mutable,
// read-only (an RCU copy under ASP), disk, absent and deleted keys.
func TestBatchMatchesPerKey(t *testing.T) {
	const (
		vs       = 16
		keySpace = 700
		rounds   = 120
	)
	for _, bound := range []int64{-1, BoundAsync} {
		t.Run(boundName(bound), func(t *testing.T) {
			ref := testStore(t, vs, 32, 6, 2, bound)
			bat := testStore(t, vs, 32, 6, 2, bound)
			rs, _ := ref.NewSession()
			bs, _ := bat.NewSession()
			defer rs.Close()
			defer bs.Close()
			for k := uint64(1); k <= keySpace; k++ {
				for _, s := range []*Session{rs, bs} {
					if err := s.Put(k, val(vs, k)); err != nil {
						t.Fatal(err)
					}
				}
			}

			var seen [numClasses]int
			dups := 0
			r := util.NewRNG(0xba7c4 ^ uint64(bound))
			for round := 0; round < rounds; round++ {
				n := 1 + r.Intn(90)
				keys := make([]uint64, n)
				for i := range keys {
					if i > 0 && r.Uint64n(8) == 0 {
						keys[i] = keys[r.Intn(i)] // duplicate within the batch
						dups++
					} else {
						keys[i] = r.Uint64n(keySpace+100) + 1 // > keySpace: never written
					}
				}
				for _, k := range keys {
					seen[classify(t, bs, k)]++
					classify(t, rs, k) // keeps DiskReads in step
				}

				if r.Uint64n(3) == 0 {
					vals := make([]byte, n*vs)
					for i, k := range keys {
						copy(vals[i*vs:], val(vs, k^uint64(round)<<32))
					}
					for i, k := range keys {
						if err := rs.Put(k, vals[i*vs:(i+1)*vs]); err != nil {
							t.Fatal(err)
						}
					}
					if err := bs.PutBatch(keys, nil, vals); err != nil {
						t.Fatal(err)
					}
				} else {
					want, got := make([]byte, n*vs), make([]byte, n*vs)
					wantFound, gotFound := make([]bool, n), make([]bool, n)
					for i, k := range keys {
						ok, err := rs.Get(k, want[i*vs:(i+1)*vs])
						if err != nil {
							t.Fatal(err)
						}
						wantFound[i] = ok
					}
					for i := range got {
						got[i] = 0xee // a missing key's slot must come back zeroed
					}
					if err := bs.GetBatch(context.Background(), keys, nil, got, gotFound); err != nil {
						t.Fatal(err)
					}
					for i, k := range keys {
						if gotFound[i] != wantFound[i] {
							t.Fatalf("round %d key %d: found %v, per-key %v", round, k, gotFound[i], wantFound[i])
						}
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("round %d: batch values differ from per-key values", round)
					}
				}
				// Tombstones: delete a few keys through both stores.
				for d := r.Intn(4); d > 0; d-- {
					k := r.Uint64n(keySpace) + 1
					if err := rs.Delete(k); err != nil {
						t.Fatal(err)
					}
					if err := bs.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
			}

			for _, c := range []keyClass{classMutable, classReadOnly, classDisk, classAbsent, classTombstone} {
				if seen[c] == 0 {
					t.Errorf("no batch key was in the %s class; classes seen: %v", classNames[c], seen)
				}
			}
			if dups == 0 {
				t.Error("no batch held a duplicate key")
			}
			if got, want := withoutFlush(bat.Stats()), withoutFlush(ref.Stats()); got != want {
				t.Fatalf("final counters differ:\nbatch   %+v\nper-key %+v", got, want)
			}
		})
	}
}

// TestBatchGroupSelectsPositions checks the idxs form a shard router
// uses: only the selected positions are read or written, each at its own
// offset in the caller's buffers.
func TestBatchGroupSelectsPositions(t *testing.T) {
	const vs = 8
	st := testStore(t, vs, 64, 8, 2, -1)
	s, _ := st.NewSession()
	defer s.Close()
	keys := []uint64{10, 11, 12, 13, 14}
	vals := make([]byte, len(keys)*vs)
	for i, k := range keys {
		copy(vals[i*vs:], val(vs, k))
	}
	if err := s.PutBatch(keys, []int{1, 3}, vals); err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0xee}, len(keys)*vs)
	found := make([]bool, len(keys))
	if err := s.GetBatch(context.Background(), keys, []int{3, 0, 1}, got, found); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true, false, true, false} {
		if found[i] != want {
			t.Fatalf("found = %v", found)
		}
	}
	for i := range keys {
		slot := got[i*vs : (i+1)*vs]
		switch i {
		case 1, 3:
			if !bytes.Equal(slot, val(vs, keys[i])) {
				t.Fatalf("position %d: wrong value", i)
			}
		case 0:
			if !bytes.Equal(slot, make([]byte, vs)) {
				t.Fatalf("position 0 (selected, absent) not zeroed: %x", slot)
			}
		default:
			if !bytes.Equal(slot, bytes.Repeat([]byte{0xee}, vs)) {
				t.Fatalf("position %d was not selected but changed: %x", i, slot)
			}
		}
	}
	if err := s.GetBatch(context.Background(), keys, nil, got[:vs], found); !errors.Is(err, ErrValueSize) {
		t.Fatalf("short vals: err = %v, want ErrValueSize", err)
	}
	if err := s.PutBatch(keys, nil, vals[:vs]); !errors.Is(err, ErrValueSize) {
		t.Fatalf("short vals: err = %v, want ErrValueSize", err)
	}
}

// TestBatchCtxCancelsStalledRead: under BSP a batch read of a key whose
// token is held gives up at the caller's deadline, like GetCtx.
func TestBatchCtxCancelsStalledRead(t *testing.T) {
	const vs = 8
	st := testStore(t, vs, 64, 8, 2, 0)
	s, _ := st.NewSession()
	defer s.Close()
	if err := s.PutBatch([]uint64{1, 2}, nil, make([]byte, 2*vs)); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, vs)
	if _, err := s.Get(2, dst); err != nil { // takes key 2's token
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vals, found := make([]byte, 2*vs), make([]bool, 2)
	err := s.GetBatch(ctx, []uint64{1, 2}, nil, vals, found)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !found[0] {
		t.Fatal("key 1 (before the stalled key) was not read")
	}
}

// selfCheckVal encodes (key, version) into every 16 bytes of a value, so
// a reader can tell a torn value (halves from two writes) or a value of
// the wrong key from a whole one.
func selfCheckVal(dst []byte, key, version uint64) {
	for off := 0; off+16 <= len(dst); off += 16 {
		binary.LittleEndian.PutUint64(dst[off:], key)
		binary.LittleEndian.PutUint64(dst[off+8:], version)
	}
}

func checkSelfVal(v []byte, key uint64) error {
	ver := binary.LittleEndian.Uint64(v[8:])
	for off := 0; off+16 <= len(v); off += 16 {
		if k := binary.LittleEndian.Uint64(v[off:]); k != key {
			return fmt.Errorf("value holds key %d, want %d", k, key)
		}
		if w := binary.LittleEndian.Uint64(v[off+8:]); w != ver {
			return fmt.Errorf("torn value: versions %d and %d", ver, w)
		}
	}
	return nil
}

// TestConcurrentBatchesOverlappingKeys runs two sessions' batches over
// the same hot keys, with pages so small that the read-only and head
// boundaries move while a batch is in flight. Meant for -race: the probe
// pass and the per-key protocol must not race with in-place writers, and
// no read may observe a torn or foreign value.
func TestConcurrentBatchesOverlappingKeys(t *testing.T) {
	const (
		vs       = 32
		keySpace = 400
		rounds   = 300
		batch    = 48
	)
	for _, bound := range []int64{-1, BoundAsync} {
		t.Run(boundName(bound), func(t *testing.T) {
			st := testStore(t, vs, 16, 5, 1, bound)
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s, err := st.NewSession()
					if err != nil {
						t.Error(err)
						return
					}
					defer s.Close()
					z := util.NewScrambledZipf(util.NewRNG(uint64(w)+7), keySpace, 0.99)
					keys := make([]uint64, batch)
					vals := make([]byte, batch*vs)
					found := make([]bool, batch)
					for round := 0; round < rounds; round++ {
						for i := range keys {
							keys[i] = z.Next() + 1
						}
						if round%2 == 0 {
							for i, k := range keys {
								selfCheckVal(vals[i*vs:(i+1)*vs], k, uint64(w)<<32|uint64(round))
							}
							if err := s.PutBatch(keys, nil, vals); err != nil {
								t.Error(err)
								return
							}
							continue
						}
						if err := s.GetBatch(context.Background(), keys, nil, vals, found); err != nil {
							t.Error(err)
							return
						}
						for i, k := range keys {
							if !found[i] {
								continue
							}
							if err := checkSelfVal(vals[i*vs:(i+1)*vs], k); err != nil {
								t.Errorf("round %d: %v", round, err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if st.HeadAddr() <= 1 {
				t.Fatal("no page was evicted; the test did not move the head boundary")
			}
		})
	}
}

// TestCountersExactAcrossSlotReuse opens and closes many more sessions
// than the store has epoch slots, concurrently, and requires the summed
// slot counters to equal the operations issued: a session that inherits
// a slot must continue its predecessor's counts, not reset or lose them.
func TestCountersExactAcrossSlotReuse(t *testing.T) {
	const (
		vs       = 8
		keys     = 64
		workers  = 8
		sessions = 25 // per worker, each one short-lived
		batch    = 16
	)
	st, err := Open(Config{
		Dir: t.TempDir(), ValueSize: vs, RecordsPerPage: 1024, MemPages: 8,
		MutablePages: 4, StalenessBound: BoundAsync, MaxSessions: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s0, _ := st.NewSession()
	for k := uint64(1); k <= keys; k++ {
		if err := s0.Put(k, val(vs, k)); err != nil {
			t.Fatal(err)
		}
	}
	s0.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := util.NewRNG(uint64(w) + 1)
			ks := make([]uint64, batch)
			vals := make([]byte, batch*vs)
			found := make([]bool, batch)
			dst := make([]byte, vs)
			for n := 0; n < sessions; n++ {
				s, err := st.NewSession()
				for err != nil { // every slot busy: wait for one to free
					runtime.Gosched()
					s, err = st.NewSession()
				}
				for i := range ks {
					ks[i] = r.Uint64n(keys) + 1
				}
				if _, err := s.Get(ks[0], dst); err != nil {
					t.Error(err)
				}
				if err := s.Put(ks[1], dst); err != nil {
					t.Error(err)
				}
				if err := s.GetBatch(context.Background(), ks, nil, vals, found); err != nil {
					t.Error(err)
				}
				if err := s.PutBatch(ks, nil, vals); err != nil {
					t.Error(err)
				}
				s.Close()
			}
		}(w)
	}
	wg.Wait()

	// Every key is in the mutable region throughout, so every read is a
	// memory hit and every write after the load is an in-place update.
	ops := int64(workers * sessions)
	got := st.Stats()
	want := StatsSnapshot{
		Gets:           ops * (1 + batch),
		Puts:           keys + ops*(1+batch),
		MemHits:        ops * (1 + batch),
		InPlaceUpdates: ops * (1 + batch),
	}
	if got.Gets != want.Gets || got.Puts != want.Puts || got.MemHits != want.MemHits ||
		got.InPlaceUpdates != want.InPlaceUpdates {
		t.Fatalf("counters: gets=%d puts=%d memHits=%d inPlace=%d, want %d/%d/%d/%d",
			got.Gets, got.Puts, got.MemHits, got.InPlaceUpdates,
			want.Gets, want.Puts, want.MemHits, want.InPlaceUpdates)
	}
}

// BenchmarkSessionBatch compares per-key Get/Put with GetBatch/PutBatch:
// two sessions in parallel, each step a 64-key Zipf(0.99) gather then
// scatter over a 200k-key memory-resident table. ns/key is per key
// operation (a step counts 128).
func BenchmarkSessionBatch(b *testing.B) {
	const (
		vs       = 64
		keySpace = 200_000
		batch    = 64
		sessions = 2
	)
	st, err := Open(Config{
		Dir: b.TempDir(), ValueSize: vs, RecordsPerPage: 1024, MemPages: 512,
		MutablePages: 256, ExpectedKeys: keySpace, StalenessBound: BoundAsync,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s0, _ := st.NewSession()
	v := make([]byte, vs)
	for k := uint64(1); k <= keySpace; k++ {
		if err := s0.Put(k, v); err != nil {
			b.Fatal(err)
		}
	}
	s0.Close()

	// Each session cycles through its own pre-drawn, sorted batches, so
	// key generation stays out of the timed loop.
	var steps [sessions][][]uint64
	for w := range steps {
		z := util.NewScrambledZipf(util.NewRNG(uint64(w)+1), keySpace, 0.99)
		for n := 0; n < 256; n++ {
			keys := make([]uint64, batch)
			for i := range keys {
				keys[i] = z.Next() + 1
			}
			slices.Sort(keys)
			steps[w] = append(steps[w], keys)
		}
	}
	run := func(b *testing.B, step func(s *Session, keys []uint64, vals []byte, found []bool) error) {
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < sessions; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s, err := st.NewSession()
				if err != nil {
					b.Error(err)
					return
				}
				defer s.Close()
				vals := make([]byte, batch*vs)
				found := make([]bool, batch)
				for n := w; n < b.N; n += sessions {
					keys := steps[w][(n/sessions)%len(steps[w])]
					if err := step(s, keys, vals, found); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*batch), "ns/key")
	}
	b.Run("perkey", func(b *testing.B) {
		run(b, func(s *Session, keys []uint64, vals []byte, found []bool) error {
			for i, k := range keys {
				ok, err := s.Get(k, vals[i*vs:(i+1)*vs])
				if err != nil {
					return err
				}
				found[i] = ok
			}
			for i, k := range keys {
				if err := s.Put(k, vals[i*vs:(i+1)*vs]); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("batch", func(b *testing.B) {
		run(b, func(s *Session, keys []uint64, vals []byte, found []bool) error {
			if err := s.GetBatch(context.Background(), keys, nil, vals, found); err != nil {
				return err
			}
			return s.PutBatch(keys, nil, vals)
		})
	})
}

// BenchmarkSessionBatchCold times GetBatch and PutBatch as a serving
// shard sees them, where BenchmarkSessionBatch's hot cache hides the
// per-key cache misses. Two sessions share a 50k-key shard sized like one
// of four shards of a 64 MiB, 200k-key table. Each step is a distinct,
// sorted 64-key Zipf(0.99) batch (a 256-key request's share of one
// shard), taken from 8192 pre-drawn per session, so no step repeats the
// last one's lines. Between steps each session writes 1 MiB of scratch,
// as a server's frame decoding and encoding do, so a step starts with
// other data in the caches. getns/key and putns/key are the mean time
// per key inside GetBatch and PutBatch.
func BenchmarkSessionBatchCold(b *testing.B) {
	const (
		vs         = 64
		keySpace   = 50_000
		batch      = 64
		sessions   = 2
		steps      = 8192
		evictBytes = 1 << 20
	)
	cfg := Config{
		Dir: b.TempDir(), ValueSize: vs, RecordsPerPage: 256, StalenessBound: BoundAsync,
	}
	cfg.SplitBudget(4, 64<<20, 0, 4*keySpace)
	st, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	s0, _ := st.NewSession()
	v := make([]byte, vs)
	for k := uint64(1); k <= keySpace; k++ {
		if err := s0.Put(k, v); err != nil {
			b.Fatal(err)
		}
	}
	s0.Close()

	var draws [sessions][][]uint64
	for w := range draws {
		z := util.NewScrambledZipf(util.NewRNG(uint64(w)+1), keySpace, 0.99)
		seen := make(map[uint64]bool, batch)
		for n := 0; n < steps; n++ {
			keys := make([]uint64, 0, batch)
			clear(seen)
			for len(keys) < batch {
				k := z.Next() + 1
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			slices.Sort(keys)
			draws[w] = append(draws[w], keys)
		}
	}

	var getNs, putNs [sessions]int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := st.NewSession()
			if err != nil {
				b.Error(err)
				return
			}
			defer s.Close()
			vals := make([]byte, batch*vs)
			found := make([]bool, batch)
			evict := make([]byte, evictBytes)
			for n := w; n < b.N; n += sessions {
				for i := 0; i < len(evict); i += 64 {
					evict[i]++
				}
				keys := draws[w][(n/sessions)%steps]
				t0 := time.Now()
				if err := s.GetBatch(context.Background(), keys, nil, vals, found); err != nil {
					b.Error(err)
					return
				}
				t1 := time.Now()
				if err := s.PutBatch(keys, nil, vals); err != nil {
					b.Error(err)
					return
				}
				getNs[w] += t1.Sub(t0).Nanoseconds()
				putNs[w] += time.Since(t1).Nanoseconds()
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	var get, put int64
	for w := range getNs {
		get += getNs[w]
		put += putNs[w]
	}
	b.ReportMetric(float64(get)/float64(b.N*batch), "getns/key")
	b.ReportMetric(float64(put)/float64(b.N*batch), "putns/key")
}
