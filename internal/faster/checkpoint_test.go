package faster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 16, RecordsPerPage: 32, MemPages: 6,
		MutablePages: 2, StalenessBound: -1, ExpectedKeys: 4096,
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := st.NewSession()
	const n = 500
	for k := uint64(1); k <= n; k++ {
		if err := s.Put(k, val(16, k)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite some keys so recovery must pick the newest version.
	for k := uint64(1); k <= 50; k++ {
		if err := s.Put(k, val(16, k+1000)); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete(60)
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	dst := make([]byte, 16)
	for k := uint64(1); k <= n; k++ {
		found, err := s2.Get(k, dst)
		if err != nil {
			t.Fatal(err)
		}
		if k == 60 {
			if found {
				t.Fatal("deleted key resurrected by recovery")
			}
			continue
		}
		if !found {
			t.Fatalf("key %d lost in recovery", k)
		}
		want := val(16, k)
		if k <= 50 {
			want = val(16, k+1000)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("key %d recovered wrong version", k)
		}
	}
	// The recovered store accepts new writes.
	if err := s2.Put(9999, val(16, 9999)); err != nil {
		t.Fatal(err)
	}
	if found, _ := s2.Get(9999, dst); !found || !bytes.Equal(dst, val(16, 9999)) {
		t.Fatal("write after recovery failed")
	}
}

func TestRecoverPreservesStaleness(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6,
		MutablePages: 2, StalenessBound: 100,
	}
	st, _ := Open(cfg)
	s, _ := st.NewSession()
	s.Put(1, val(8, 1))
	dst := make([]byte, 8)
	for i := 0; i < 5; i++ {
		s.Get(1, dst) // staleness -> 5
	}
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, _ := Open(cfg)
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	if stal := recordStaleness(t, st2, s2, 1); stal != 5 {
		t.Fatalf("recovered staleness = %d, want 5", stal)
	}
}

func TestOpenWithoutCheckpointStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6, MutablePages: 2, StalenessBound: -1}
	st, _ := Open(cfg)
	s, _ := st.NewSession()
	s.Put(1, val(8, 1))
	s.Close()
	st.Close() // no checkpoint

	st2, _ := Open(cfg)
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	dst := make([]byte, 8)
	if found, _ := s2.Get(1, dst); found {
		t.Fatal("store without checkpoint should start empty")
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6, MutablePages: 2, StalenessBound: -1}
	st, _ := Open(cfg)
	s, _ := st.NewSession()
	s.Put(1, val(8, 1))
	s.Close()
	st.Checkpoint()
	st.Close()

	// Flip a byte in the metadata.
	meta := filepath.Join(dir, metaFile)
	buf, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	buf[10] ^= 0xff
	os.WriteFile(meta, buf, 0o644)
	if _, err := Open(cfg); err == nil {
		t.Fatal("corrupt checkpoint should be rejected")
	}

	// Truncated metadata likewise.
	os.WriteFile(meta, buf[:7], 0o644)
	if _, err := Open(cfg); err == nil {
		t.Fatal("truncated checkpoint should be rejected")
	}
}

func TestCheckpointValueSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6, MutablePages: 2, StalenessBound: -1}
	st, _ := Open(cfg)
	st.Checkpoint()
	st.Close()
	cfg.ValueSize = 16
	if _, err := Open(cfg); err == nil {
		t.Fatal("ValueSize mismatch should be rejected")
	}
}

func TestCheckpointTwice(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, ValueSize: 8, RecordsPerPage: 32, MemPages: 6, MutablePages: 2, StalenessBound: -1}
	st, _ := Open(cfg)
	s, _ := st.NewSession()
	s.Put(1, val(8, 1))
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Put(2, val(8, 2))
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st.Close()

	st2, _ := Open(cfg)
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	dst := make([]byte, 8)
	for k := uint64(1); k <= 2; k++ {
		if found, _ := s2.Get(k, dst); !found || !bytes.Equal(dst, val(8, k)) {
			t.Fatalf("key %d lost across incremental checkpoints", k)
		}
	}
}

func TestRecoverKeyZero(t *testing.T) {
	// Regression: key 0's first version has header 0 and no predecessor,
	// which the recovery scan used to misread as an unallocated gap slot
	// and drop. Only fully zero records (value included) are gaps.
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 16, RecordsPerPage: 32, MemPages: 6,
		MutablePages: 2, StalenessBound: 0, ExpectedKeys: 64,
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := st.NewSession()
	want := val(16, 12345)
	if err := s.Put(0, want); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, _ := st2.NewSession()
	defer s2.Close()
	got := make([]byte, 16)
	found, err := s2.Peek(0, got)
	if err != nil || !found {
		t.Fatalf("key 0 after recovery: found=%v err=%v", found, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("key 0 value: got %v want %v", got, want)
	}
}

// TestRecoverAtSmallerPageSize pins that the page granularity is not part
// of the durable format: a log written and checkpointed at 1024 records
// per page recovers byte-exact at 256, the granularity every kv-opened
// store uses, and keeps appending and recovering from there.
func TestRecoverAtSmallerPageSize(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 16, RecordsPerPage: 1024, MemPages: 4,
		MutablePages: 2, StalenessBound: -1, ExpectedKeys: 1 << 14,
	}
	const n = 10000 // > 4 pages of 1024: the early records are on disk
	write := func(st *Store, from, to, salt uint64) {
		t.Helper()
		s, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for k := from; k <= to; k++ {
			if err := s.Put(k, val(16, k+salt)); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkpointClose := func(st *Store) {
		t.Helper()
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(st *Store, want func(k uint64) []byte) {
		t.Helper()
		s, err := st.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		dst := make([]byte, 16)
		for k := uint64(1); k <= n; k++ {
			found, err := s.Peek(k, dst)
			if err != nil || !found {
				t.Fatalf("key %d: found=%v err=%v", k, found, err)
			}
			if !bytes.Equal(dst, want(k)) {
				t.Fatalf("key %d: got %x want %x", k, dst, want(k))
			}
		}
	}

	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	write(st, 1, n, 0)
	write(st, 1, 100, 1<<20) // newer versions recovery must prefer
	checkpointClose(st)

	cfg.RecordsPerPage = 256
	st, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := func(k uint64) []byte {
		if k <= 100 {
			return val(16, k+1<<20)
		}
		return val(16, k)
	}
	check(st, want)
	write(st, n/2, n, 1<<30) // append past the 1024-record tail page
	checkpointClose(st)

	st, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check(st, func(k uint64) []byte {
		if k >= n/2 {
			return val(16, k+1<<30)
		}
		return want(k)
	})
}

// TestRecoverSkipsAbandonedCopy pins recovery against a look-ahead copy
// that loses its race: a Prefetch resolves a key on disk, a Put publishes
// a newer version first, and the Prefetch's copy — appended after the Put,
// so at a higher address, but never published — must not shadow the Put
// once the store checkpoints and recovers.
func TestRecoverSkipsAbandonedCopy(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 16, RecordsPerPage: 32, MemPages: 4,
		MutablePages: 2, StalenessBound: -1, ExpectedKeys: 4096,
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	const key = 7
	if err := s.Put(key, val(16, 1)); err != nil {
		t.Fatal(err)
	}
	for k := uint64(100); k < 400; k++ { // push key 7 to disk
		if err := s.Put(k, val(16, k)); err != nil {
			t.Fatal(err)
		}
	}
	// The look-ahead copy (session s) resolves the disk version, then
	// loses the race to another session's Put of a newer value.
	s.es.Protect()
	var hit chainHit
	if err := s.findKey(&hit, key, false); err != nil {
		t.Fatal(err)
	}
	if hit.reg != regionDisk {
		t.Fatalf("key %d is in region %d, want disk", key, hit.reg)
	}
	s.es.Unprotect()
	writer, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(key, val(16, 2)); err != nil {
		t.Fatal(err)
	}
	writer.Close()
	s.es.Protect()
	ok, err := s.copyToTail(key, hit.diskRec.hdr, hit.diskRec.val, &hit)
	s.es.Unprotect()
	if err != nil || ok {
		t.Fatalf("stale copy: published=%v err=%v, want an abandoned append", ok, err)
	}
	s.Close()
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := make([]byte, 16)
	if found, err := s2.Peek(key, got); err != nil || !found {
		t.Fatalf("key %d after recovery: found=%v err=%v", key, found, err)
	}
	if !bytes.Equal(got, val(16, 2)) {
		t.Fatalf("key %d recovered %x, want the acknowledged write %x", key, got, val(16, 2))
	}
}

// TestRecoverAfterUncheckpointedCopy pins recovery against a superseded
// version whose replaced bit reaches disk after the checkpoint: a record
// below the checkpoint tail is copied forward by an update once its page
// is read-only, the page is written again with the old version marked,
// and the store closes without a new checkpoint. Recovery must still find
// the checkpointed version, since its replacement lies past the tail.
func TestRecoverAfterUncheckpointedCopy(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, ValueSize: 16, RecordsPerPage: 32, MemPages: 4,
		MutablePages: 2, StalenessBound: -1, ExpectedKeys: 4096,
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	const key = 7
	if err := s.Put(key, val(16, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Push key 7's page out of the mutable window but not out of memory.
	for k := uint64(100); k < 170; k++ {
		if err := s.Put(k, val(16, k)); err != nil {
			t.Fatal(err)
		}
	}
	s.es.Refresh()
	s.es.Protect()
	var hit chainHit
	if err := s.findKey(&hit, key, false); err != nil {
		t.Fatal(err)
	}
	s.es.Unprotect()
	if hit.reg != regionReadOnly {
		t.Fatalf("key %d is in region %d, want read-only", key, hit.reg)
	}
	// The update copies the record to the tail and marks the old version.
	if err := s.Put(key, val(16, 2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := st.Close(); err != nil { // flushes the marked page, no checkpoint
		t.Fatal(err)
	}

	st2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, err := st2.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := make([]byte, 16)
	if found, err := s2.Peek(key, got); err != nil || !found {
		t.Fatalf("key %d after recovery: found=%v err=%v, want its checkpointed value", key, found, err)
	}
	if !bytes.Equal(got, val(16, 1)) && !bytes.Equal(got, val(16, 2)) {
		t.Fatalf("key %d recovered %x, want %x or newer", key, got, val(16, 1))
	}
}
