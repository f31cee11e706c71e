package driver

import (
	"sync"
	"sync/atomic"
)

// lookaheadQueue is the hint queue's capacity, in Lookahead calls. A
// trainer hints once per step, so the queue holds 1024 steps of backlog:
// a hint is dropped only when the workers fall that far behind.
const lookaheadQueue = 1024

// lookahead is the asynchronous hint pipeline behind Session.Lookahead on
// both drivers: a local model's workers prefetch through the kv stack, a
// remote model's ship LOOKAHEAD frames. A hint is copied onto a bounded
// queue and the call returns at once; each worker holds its own session
// and drains the queue. Workers start on the first hint, so a model that
// never hints holds no extra sessions. A hint that finds the queue full
// is dropped, and dropped counts its keys.
type lookahead struct {
	workers int
	// open returns one worker's hint function and the release of the
	// session behind it. Hints are best-effort: the worker ignores their
	// errors, and a worker whose open fails exits.
	open func() (hint func(keys []uint64), release func(), err error)

	// mu orders worker start against close, so a hint racing close can
	// never start a worker close no longer sees.
	mu      sync.Mutex
	started bool
	closed  bool
	queue   chan []uint64
	stop    chan struct{}
	wg      sync.WaitGroup

	dropped atomic.Int64
}

func newLookahead(workers, queue int, open func() (func([]uint64), func(), error)) *lookahead {
	return &lookahead{
		workers: max(workers, 1),
		open:    open,
		queue:   make(chan []uint64, queue),
		stop:    make(chan struct{}),
	}
}

// hint queues keys for the workers without blocking.
func (l *lookahead) hint(keys []uint64) {
	if len(keys) == 0 {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if !l.started {
		l.started = true
		l.wg.Add(l.workers)
		for w := 0; w < l.workers; w++ {
			go l.worker()
		}
	}
	l.mu.Unlock()
	cp := append([]uint64(nil), keys...) // the caller reuses its slice
	select {
	case l.queue <- cp:
	default:
		l.dropped.Add(int64(len(keys)))
	}
}

func (l *lookahead) worker() {
	defer l.wg.Done()
	hint, release, err := l.open()
	if err != nil {
		return
	}
	defer release()
	for {
		select {
		case <-l.stop:
			return
		case keys := <-l.queue:
			hint(keys)
		}
	}
}

// close stops the workers and waits for them; later hints are ignored.
// Idempotent.
func (l *lookahead) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	started := l.started
	l.mu.Unlock()
	if started {
		close(l.stop)
		l.wg.Wait()
	}
}
