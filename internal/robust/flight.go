package robust

import (
	"sync"
	"sync/atomic"
)

// Flight is a minimal singleflight: concurrent Do calls with the same key
// share one execution of fn. The module uses the standard library only, so
// the semantics mirror golang.org/x/sync's singleflight.Group, reduced to
// what the serve tier's query pipeline and the solver memo need. The zero
// value is ready to use.
type Flight[K comparable, V any] struct {
	mu     sync.Mutex
	calls  map[K]*flightCall[V]
	shared atomic.Uint64 // callers that joined another caller's execution
}

// flightCall is one in-flight (or just-completed) execution.
type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Do executes fn once per concurrent set of callers sharing key. The
// second return reports whether this caller shared another caller's
// execution. Nothing outlives the execution: a result, error included,
// reaches only the callers already waiting on it. A panic inside fn is
// contained into a *PanicError handed to every caller — a poisoned input
// must not strand waiters or kill the process.
func (f *Flight[K, V]) Do(key K, fn func() (V, error)) (val V, shared bool, err error) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.shared.Add(1)
		f.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	if f.calls == nil {
		f.calls = make(map[K]*flightCall[V])
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	f.calls[key] = c
	f.mu.Unlock()

	c.err = Safe(func() error {
		var ferr error
		c.val, ferr = fn()
		return ferr
	})

	f.mu.Lock()
	delete(f.calls, key)
	f.mu.Unlock()
	c.wg.Done()
	return c.val, false, c.err
}

// Shared returns how many callers have joined another caller's execution
// over f's lifetime.
func (f *Flight[K, V]) Shared() uint64 { return f.shared.Load() }
