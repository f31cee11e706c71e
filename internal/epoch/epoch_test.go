package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestBumpWithNoSessionsRunsImmediately(t *testing.T) {
	m := NewManager(4)
	ran := false
	m.BumpWith(func() { ran = true })
	if !ran {
		t.Fatal("action should run immediately with no protected sessions")
	}
}

func TestActionDeferredUntilRefresh(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	s.Protect()

	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	if ran.Load() {
		t.Fatal("action ran while a stale session was protected")
	}
	s.Refresh() // session observes the new epoch; action becomes safe
	if !ran.Load() {
		t.Fatal("action did not run after the protected session refreshed")
	}
	s.Unprotect()
	s.Unregister()
}

func TestActionDeferredUntilUnprotect(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	s.Protect()
	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	if ran.Load() {
		t.Fatal("action ran too early")
	}
	s.Unprotect()
	if !ran.Load() {
		t.Fatal("action did not run after unprotect")
	}
	s.Unregister()
}

func TestMultipleSessionsAllMustAdvance(t *testing.T) {
	m := NewManager(4)
	s1 := m.Register()
	s2 := m.Register()
	s1.Protect()
	s2.Protect()

	var ran atomic.Bool
	m.BumpWith(func() { ran.Store(true) })
	s1.Refresh()
	if ran.Load() {
		t.Fatal("action ran before all sessions advanced")
	}
	s2.Refresh()
	if !ran.Load() {
		t.Fatal("action did not run after all sessions advanced")
	}
	s1.Unprotect()
	s2.Unprotect()
	s1.Unregister()
	s2.Unregister()
}

func TestActionsRunInEpochOrder(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	s.Protect()
	var order []int
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		i := i
		m.BumpWith(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Unprotect()
	m.Drain()
	if len(order) != 5 {
		t.Fatalf("got %d actions, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("actions out of order: %v", order)
		}
	}
	s.Unregister()
}

func TestRegisterExhaustion(t *testing.T) {
	m := NewManager(2)
	a := m.Register()
	b := m.Register()
	if a == nil || b == nil {
		t.Fatal("expected two successful registrations")
	}
	if c := m.Register(); c != nil {
		t.Fatal("third registration should fail")
	}
	a.Unregister()
	if c := m.Register(); c == nil {
		t.Fatal("slot should be reusable after unregister")
	}
	_ = b
}

func TestSafeEpoch(t *testing.T) {
	m := NewManager(4)
	if m.SafeEpoch() != m.Current() {
		t.Fatal("safe epoch should equal current with no sessions")
	}
	s := m.Register()
	s.Protect()
	e0 := m.Current()
	m.Bump()
	m.Bump()
	if got := m.SafeEpoch(); got != e0 {
		t.Fatalf("SafeEpoch = %d, want %d (the stale session's mark)", got, e0)
	}
	s.Refresh()
	if got := m.SafeEpoch(); got != m.Current() {
		t.Fatalf("SafeEpoch = %d, want current %d", got, m.Current())
	}
	s.Unprotect()
	s.Unregister()
}

func TestConcurrentProtectRefreshStress(t *testing.T) {
	m := NewManager(16)
	const workers = 8
	const iters = 2000
	var executed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s := m.Register()
			if s == nil {
				t.Error("registration failed")
				return
			}
			defer s.Unregister()
			for i := 0; i < iters; i++ {
				s.Protect()
				if i%7 == 0 {
					m.BumpWith(func() { executed.Add(1) })
				}
				s.Refresh()
				s.Unprotect()
			}
		}(w)
	}
	wg.Wait()
	m.Drain()
	want := int64(workers * ((iters + 6) / 7))
	if executed.Load() != want {
		t.Fatalf("executed %d actions, want %d", executed.Load(), want)
	}
}

func TestProtectedFlag(t *testing.T) {
	m := NewManager(2)
	s := m.Register()
	if s.Protected() {
		t.Fatal("fresh session should be unprotected")
	}
	s.Protect()
	if !s.Protected() {
		t.Fatal("session should report protected")
	}
	s.Unprotect()
	if s.Protected() {
		t.Fatal("session should report unprotected")
	}
	s.Unregister()
}

// TestBumpFromOtherGoroutineDrainsOnUnprotect: an action queued by another
// goroutine while a session is protected runs on that session's
// Unprotect, with no Drain call — the lock-free fast path in tryDrain
// must not skip an action that became pending while the session held
// protection.
func TestBumpFromOtherGoroutineDrainsOnUnprotect(t *testing.T) {
	m := NewManager(4)
	s := m.Register()
	defer s.Unregister()
	for i := 0; i < 100; i++ {
		s.Protect()
		var ran atomic.Bool
		done := make(chan struct{})
		go func() {
			m.BumpWith(func() { ran.Store(true) })
			close(done)
		}()
		<-done
		if ran.Load() {
			t.Fatal("action ran while the session was protected at an older epoch")
		}
		s.Unprotect()
		if !ran.Load() {
			t.Fatalf("iteration %d: action still pending after Unprotect", i)
		}
	}
}

// TestNoLostDrainUnderRace races sessions' Unprotect against BumpWith on
// other goroutines. Without any Drain call, once everyone has stopped
// every action must have run: whichever side acted last saw the other.
func TestNoLostDrainUnderRace(t *testing.T) {
	m := NewManager(8)
	const (
		sessions = 3
		bumpers  = 2
		iters    = 3000
	)
	var executed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.Register()
			defer s.Unregister()
			for i := 0; i < iters; i++ {
				s.Protect()
				s.Unprotect()
			}
		}()
	}
	for w := 0; w < bumpers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				m.BumpWith(func() { executed.Add(1) })
			}
		}()
	}
	wg.Wait()
	if got, want := executed.Load(), int64(bumpers*(iters/10)); got != want {
		t.Fatalf("executed %d actions without a Drain, want %d", got, want)
	}
}
