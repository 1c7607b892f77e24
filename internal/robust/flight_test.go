package robust

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond for up to 5s, failing the test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFlightCollapses(t *testing.T) {
	var f Flight[string, []byte]
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
			v, sh, err := f.Do("k", func() ([]byte, error) {
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
	waitFor(t, "waiters", func() bool { return f.Shared() == n-1 })
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

func TestFlightDistinctKeysDoNotCollapse(t *testing.T) {
	var f Flight[string, []byte]
	var calls atomic.Uint64
	for i := 0; i < 4; i++ {
		_, shared, err := f.Do(fmt.Sprintf("k%d", i), func() ([]byte, error) {
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

func TestFlightErrorSharedWithWaiters(t *testing.T) {
	var f Flight[string, []byte]
	release := make(chan struct{})
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		_, _, err := f.Do("k", func() ([]byte, error) {
			<-release
			return nil, boom
		})
		done <- err
	}()
	waitFor(t, "leader started", func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		_, ok := f.calls["k"]
		return ok
	})
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := f.Do("k", func() ([]byte, error) { return nil, nil })
		waiterErr <- err
	}()
	waitFor(t, "waiter joined", func() bool { return f.Shared() == 1 })
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Errorf("leader err = %v, want boom", err)
	}
	if err := <-waiterErr; !errors.Is(err, boom) {
		t.Errorf("waiter err = %v, want boom", err)
	}
	// The error is not remembered: the next caller runs fn afresh.
	v, shared, err := f.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || shared || string(v) != "ok" {
		t.Errorf("after error: v=%q shared=%v err=%v", v, shared, err)
	}
}

// TestFlightPanicContained: a panicking fn must deliver a PanicError to
// every caller rather than stranding waiters or crashing the process.
func TestFlightPanicContained(t *testing.T) {
	var f Flight[int, float64]
	_, _, err := f.Do(1, func() (float64, error) { panic("poisoned spec") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// The key must be free again for the next caller.
	v, shared, err := f.Do(1, func() (float64, error) { return 2.5, nil })
	if err != nil || shared || v != 2.5 {
		t.Errorf("after panic: v=%v shared=%v err=%v", v, shared, err)
	}
}

// joined unpacks an errors.Join result into its parts (nil → none).
func joined(err error) []error {
	if err == nil {
		return nil
	}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return j.Unwrap()
	}
	return []error{err}
}

// TestEachJoinsErrorsInIndexOrder: every index runs exactly once, at any
// worker count (≤ 0 meaning GOMAXPROCS, and more workers than items), and
// the failures come back in index order whatever the schedule.
func TestEachJoinsErrorsInIndexOrder(t *testing.T) {
	const n = 37
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		ran := make([]atomic.Int32, n)
		err := Each(context.Background(), n, workers, func(i int) error {
			ran[i].Add(1)
			if i%5 == 2 {
				time.Sleep(time.Duration(n-i) * 10 * time.Microsecond) // finish out of order
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers %d: fn(%d) ran %d times, want 1", workers, i, got)
			}
		}
		parts := joined(err)
		var want []string
		for i := 2; i < n; i += 5 {
			want = append(want, fmt.Sprintf("item %d", i))
		}
		if len(parts) != len(want) {
			t.Fatalf("workers %d: %d errors, want %d: %v", workers, len(parts), len(want), err)
		}
		for k, e := range parts {
			if e.Error() != want[k] {
				t.Errorf("workers %d: error %d = %q, want %q", workers, k, e, want[k])
			}
		}
	}
}

func TestEachEmpty(t *testing.T) {
	err := Each(context.Background(), 0, 4, func(int) error {
		t.Error("fn called for n = 0")
		return nil
	})
	if err != nil {
		t.Errorf("n = 0: err = %v, want nil", err)
	}
}

// TestEachCanceledChunkRunsNothing: with one worker and chunks of two,
// canceling inside the first chunk lets that chunk finish; each later
// chunk calls no fn and reports the cancellation once.
func TestEachCanceledChunkRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 8 // chunk = max(8/(4·1), 1) = 2
	var calls []int
	err := Each(ctx, n, 1, func(i int) error {
		calls = append(calls, i)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if fmt.Sprint(calls) != "[0 1]" {
		t.Errorf("fn ran for %v, want [0 1]: the chunk in progress finishes, later ones run nothing", calls)
	}
	parts := joined(err)
	if len(parts) != 3 {
		t.Fatalf("%d errors, want one per skipped chunk (3): %v", len(parts), err)
	}
	for _, e := range parts {
		if Classify(e) != Canceled || !errors.Is(e, context.Canceled) {
			t.Errorf("skipped chunk reported %v, want Err(ctx)", e)
		}
	}
}
