package driver

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestLookaheadDropsCountKeys pins one meaning of PrefetchDropped on both
// drivers: with the queue full, every hint is dropped whole and the count
// grows by the number of keys it carried, not by one per call. It also
// pins that a hint never blocks on a full queue or a stalled worker.
func TestLookaheadDropsCountKeys(t *testing.T) {
	release := make(chan struct{})
	var drained atomic.Int64
	l := newLookahead(1, 2, func() (func([]uint64), func(), error) {
		<-release // the worker stalls before draining anything
		return func(keys []uint64) { drained.Add(int64(len(keys))) }, func() {}, nil
	})
	l.hint([]uint64{1, 2, 3})
	l.hint([]uint64{4}) // the queue (capacity 2) is now full
	if n := l.dropped.Load(); n != 0 {
		t.Fatalf("dropped %d keys before the queue filled", n)
	}
	hinted := int64(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, n := range []int{1, 5, 17, 256} {
			keys := make([]uint64, n)
			l.hint(keys)
			hinted += int64(n)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a hint blocked on a full queue")
	}
	if n := l.dropped.Load(); n != hinted {
		t.Fatalf("dropped count %d, want %d (the keys hinted while full)", n, hinted)
	}
	l.hint(nil) // an empty hint is neither queued nor dropped
	if n := l.dropped.Load(); n != hinted {
		t.Fatalf("empty hint changed the dropped count to %d", n)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for drained.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := drained.Load(); n != 4 {
		t.Fatalf("worker drained %d queued keys, want 4", n)
	}
	l.close()
	l.close() // idempotent
	l.hint([]uint64{9})
	if n := l.dropped.Load(); n != hinted {
		t.Fatalf("a hint after close counted as dropped: %d", n)
	}
}
