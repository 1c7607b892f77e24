package serve

import (
	"sync"

	"repro/internal/robust"
)

// group is a minimal singleflight: concurrent Do calls with the same
// key share one execution of fn. It exists because the container ships
// no external modules — the semantics mirror golang.org/x/sync's
// singleflight.Group, reduced to what the eval path needs.
type group struct {
	mu sync.Mutex
	m  map[string]*call
}

// call is one in-flight (or just-completed) execution.
type call struct {
	wg   sync.WaitGroup
	val  []byte
	err  error
	dups int // callers waiting on this execution (tests read it)
}

func newGroup() *group { return &group{m: make(map[string]*call)} }

// Do executes fn once per concurrent set of callers sharing key. The
// second return reports whether this caller shared another caller's
// execution. A panic inside fn is contained into a *robust.PanicError
// handed to every caller — a poisoned spec must not strand waiters or
// kill the process.
func (g *group) Do(key string, fn func() ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := &call{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.err = robust.Safe(func() error {
		var ferr error
		c.val, ferr = fn()
		return ferr
	})

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, false, c.err
}
