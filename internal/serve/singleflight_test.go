package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/robust"
)

// waiters is how many callers are blocked on key's in-flight execution
// (0 when the key is idle).
func waiters(g *group, key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

func TestGroupCollapses(t *testing.T) {
	g := newGroup()
	const n = 16
	var calls atomic.Uint64
	release := make(chan struct{})

	var wg sync.WaitGroup
	shared := make([]bool, n)
	vals := make([][]byte, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			v, sh, err := g.Do("k", func() ([]byte, error) {
				calls.Add(1)
				<-release
				return []byte("v"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shared[i] = v, sh
		}(i)
	}
	waitFor(t, "waiters", func() bool { return waiters(g, "k") == n-1 })
	close(release)
	wg.Wait()

	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	nShared := 0
	for i := range shared {
		if string(vals[i]) != "v" {
			t.Errorf("caller %d got %q", i, vals[i])
		}
		if shared[i] {
			nShared++
		}
	}
	if nShared != n-1 {
		t.Errorf("%d callers shared, want %d", nShared, n-1)
	}
}

func TestGroupDistinctKeysDoNotCollapse(t *testing.T) {
	g := newGroup()
	var calls atomic.Uint64
	for i := 0; i < 4; i++ {
		_, shared, err := g.Do(fmt.Sprintf("k%d", i), func() ([]byte, error) {
			calls.Add(1)
			return nil, nil
		})
		if err != nil || shared {
			t.Errorf("key %d: shared=%v err=%v", i, shared, err)
		}
	}
	if calls.Load() != 4 {
		t.Errorf("fn ran %d times, want 4", calls.Load())
	}
}

func TestGroupErrorSharedWithWaiters(t *testing.T) {
	g := newGroup()
	release := make(chan struct{})
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() ([]byte, error) {
			<-release
			return nil, boom
		})
		done <- err
	}()
	waitFor(t, "leader started", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		_, ok := g.m["k"]
		return ok
	})
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() ([]byte, error) { return nil, nil })
		waiterErr <- err
	}()
	waitFor(t, "waiter joined", func() bool { return waiters(g, "k") == 1 })
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Errorf("leader err = %v, want boom", err)
	}
	if err := <-waiterErr; !errors.Is(err, boom) {
		t.Errorf("waiter err = %v, want boom", err)
	}
}

// TestGroupPanicContained: a panicking fn must deliver a PanicError to
// every caller rather than stranding waiters or crashing the process.
func TestGroupPanicContained(t *testing.T) {
	g := newGroup()
	_, _, err := g.Do("k", func() ([]byte, error) { panic("poisoned spec") })
	var pe *robust.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *robust.PanicError", err)
	}
	// The key must be free again for the next caller.
	v, shared, err := g.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || shared || string(v) != "ok" {
		t.Errorf("after panic: v=%q shared=%v err=%v", v, shared, err)
	}
}
