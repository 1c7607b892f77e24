package robust

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Deterministic fault injection.
//
// A fault plan is a comma- (or semicolon-) separated list of directives:
//
//	point[@scope]=action[:arg][ xCOUNT]
//
//	point   the injection point name, e.g. "scaling.solve", "exp.run",
//	        "exp.trace", "trace.read"
//	scope   an experiment id, or "*" (default) for any scope
//	action  one of:
//	          panic       panic at the point (exercises containment)
//	          noconverge  return an error wrapping ErrNoConvergence
//	                      (transient — exercises retry/degradation)
//	          transient   return a generic transient error
//	          corrupt     return an error wrapping ErrCorruptTrace
//	          domain      return an error wrapping ErrDomain
//	          sleep:DUR   sleep DUR (context-aware), then continue —
//	                      artificial latency, not a failure
//	count   "xN" fires the directive on its first N matching hits
//	        (default x1); "x*" fires on every hit
//
// Example:
//
//	BANDWALL_FAULTS='scaling.solve@fig04=panic,exp.trace@fig01=corrupt,exp.run@fig02=noconverge,exp.run=sleep:50ms x*'
//
// The special spec "all" parses to an empty plan with Matrix set: it
// injects nothing by itself but tells the test suites to run their
// broadened fault matrices (the CI fault-injection job sets it).
//
// Plans are deterministic: directives fire on hit counts, never on
// randomness, so a run reproduces exactly.

// EnvFaults is the environment variable the CLI reads a fault plan from.
const EnvFaults = "BANDWALL_FAULTS"

// Directive is one parsed fault rule.
type Directive struct {
	Point  string
	Scope  string        // "" or "*" matches any scope
	Action string        // panic|noconverge|transient|corrupt|domain|sleep
	Sleep  time.Duration // for Action == "sleep"
	Count  int64         // fires on the first Count matching hits; -1 = unlimited

	hits atomic.Int64
}

// take consumes one firing slot, reporting whether the directive fires.
func (d *Directive) take() bool {
	if d.Count < 0 {
		d.hits.Add(1)
		return true
	}
	return d.hits.Add(1) <= d.Count
}

// Plan is a parsed fault plan.
type Plan struct {
	// Matrix is set by the "all" sentinel spec: no faults of its own,
	// but test suites broaden their fault matrices when they see it.
	Matrix bool
	Dirs   []*Directive
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Dirs) == 0 }

// actions valid in a directive (sleep additionally takes a duration arg).
var actions = map[string]bool{
	"panic": true, "noconverge": true, "transient": true,
	"corrupt": true, "domain": true, "sleep": true,
}

// ParsePlan parses a fault-plan spec (see the package comment grammar).
// An empty spec yields an empty plan.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	if spec == "all" {
		p.Matrix = true
		return p, nil
	}
	for _, raw := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ';' }) {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		d, err := parseDirective(raw)
		if err != nil {
			return nil, err
		}
		p.Dirs = append(p.Dirs, d)
	}
	return p, nil
}

func parseDirective(raw string) (*Directive, error) {
	lhs, rhs, ok := strings.Cut(raw, "=")
	if !ok {
		return nil, fmt.Errorf("robust: directive %q: want point[@scope]=action", raw)
	}
	d := &Directive{Count: 1}
	d.Point, d.Scope, _ = strings.Cut(strings.TrimSpace(lhs), "@")
	if d.Point == "" {
		return nil, fmt.Errorf("robust: directive %q: empty injection point", raw)
	}
	rhs = strings.TrimSpace(rhs)
	if fields := strings.Fields(rhs); len(fields) == 2 && strings.HasPrefix(fields[1], "x") {
		rhs = fields[0]
		cnt := fields[1][1:]
		if cnt == "*" {
			d.Count = -1
		} else {
			n, err := strconv.ParseInt(cnt, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("robust: directive %q: bad count %q", raw, fields[1])
			}
			d.Count = n
		}
	}
	var arg string
	d.Action, arg, _ = strings.Cut(rhs, ":")
	if !actions[d.Action] {
		known := make([]string, 0, len(actions))
		for a := range actions {
			known = append(known, a)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("robust: directive %q: unknown action %q (want one of %s)",
			raw, d.Action, strings.Join(known, "|"))
	}
	if d.Action == "sleep" {
		dur, err := time.ParseDuration(arg)
		if err != nil || dur < 0 {
			return nil, fmt.Errorf("robust: directive %q: bad sleep duration %q", raw, arg)
		}
		d.Sleep = dur
	} else if arg != "" {
		return nil, fmt.Errorf("robust: directive %q: action %q takes no argument", raw, d.Action)
	}
	return d, nil
}

// Injector evaluates a fault plan at named injection points. A nil
// injector injects nothing.
type Injector struct {
	plan *Plan
}

// NewInjector builds an injector over plan.
func NewInjector(plan *Plan) *Injector {
	return &Injector{plan: plan}
}

// Plan returns the injector's plan (nil on a nil injector).
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// active is the process-wide injector; nil means injection disabled.
var active atomic.Pointer[Injector]

// setMu serializes SetInjector so concurrent test hooks restore cleanly.
var setMu sync.Mutex

// SetInjector installs in as the process-wide injector (nil disables
// injection) and returns a function restoring the previous one — the
// test-hook entry point:
//
//	defer robust.SetInjector(robust.NewInjector(plan))()
func SetInjector(in *Injector) (restore func()) {
	setMu.Lock()
	defer setMu.Unlock()
	prev := active.Load()
	if in != nil && in.Plan().Empty() && !in.Plan().Matrix {
		in = nil // an empty plan is equivalent to no injector
	}
	active.Store(in)
	return func() {
		setMu.Lock()
		defer setMu.Unlock()
		active.Store(prev)
	}
}

// scopeKey carries the injection scope (the running experiment id).
type scopeKey struct{}

// WithScope tags ctx with an injection scope; directives with a matching
// @scope fire only under it.
func WithScope(ctx context.Context, scope string) context.Context {
	return context.WithValue(ctx, scopeKey{}, scope)
}

// Scope returns ctx's injection scope ("" when untagged).
func Scope(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	s, _ := ctx.Value(scopeKey{}).(string)
	return s
}

// Hit consults the active fault plan at the named injection point. With
// no matching armed directive it returns nil at the cost of one atomic
// load. A matching directive either returns the injected error, sleeps
// (latency faults, context-aware) and returns nil, or panics (panic
// faults — the point is to exercise containment). Errors carry the
// taxonomy sentinel implied by the action.
func Hit(ctx context.Context, point string) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	return in.hit(ctx, point)
}

func (in *Injector) hit(ctx context.Context, point string) error {
	if in == nil || in.plan == nil {
		return nil
	}
	scope := Scope(ctx)
	for _, d := range in.plan.Dirs {
		if d.Point != point {
			continue
		}
		if d.Scope != "" && d.Scope != "*" && d.Scope != scope {
			continue
		}
		if !d.take() {
			continue
		}
		counterFaultsInjected().Inc()
		switch d.Action {
		case "panic":
			panic(fmt.Sprintf("robust: injected panic at %s", point))
		case "sleep":
			if err := Sleep(ctx, d.Sleep); err != nil {
				return err
			}
			continue // latency is not a failure; later directives may still fire
		case "noconverge":
			return fmt.Errorf("robust: injected fault at %s: %w", point, ErrNoConvergence)
		case "corrupt":
			return fmt.Errorf("robust: injected fault at %s: %w", point, ErrCorruptTrace)
		case "domain":
			return fmt.Errorf("robust: injected fault at %s: %w", point, ErrDomain)
		default: // "transient"
			return MarkTransient(fmt.Errorf("robust: injected transient fault at %s", point))
		}
	}
	return nil
}

// Sleep sleeps d or until ctx is done, whichever is first, and returns
// the taxonomy cancellation error (Err) in the latter case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return Err(ctx)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-t.C:
		return nil
	case <-done:
		return Err(ctx)
	}
}
