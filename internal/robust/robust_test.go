package robust

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestClassify(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"domain", fmt.Errorf("x: %w", ErrDomain), Permanent},
		{"corrupt", fmt.Errorf("x: %w", ErrCorruptTrace), Permanent},
		{"noconverge", fmt.Errorf("x: %w", ErrNoConvergence), Transient},
		{"marked", MarkTransient(errors.New("flaky")), Transient},
		{"canceled", Err(ctx), Canceled},
		{"context", context.Canceled, Canceled},
		{"deadline", context.DeadlineExceeded, Canceled},
		{"plain", errors.New("boom"), Permanent},
		{"panic", &PanicError{Value: "boom"}, Permanent},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) must stay nil")
	}
}

func TestErrLiveContext(t *testing.T) {
	if err := Err(context.Background()); err != nil {
		t.Errorf("live context: %v", err)
	}
	if err := Err(nil); err != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Errorf("nil context: %v", err)
	}
}

func TestRecoverContainsPanicWithStack(t *testing.T) {
	err := Safe(func() error { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("panic not captured: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(string(pe.Stack), "robust") {
		t.Errorf("stack does not mention the panic site:\n%s", pe.Stack)
	}
	if Classify(err) != Permanent {
		t.Errorf("contained panic must classify Permanent")
	}
}

func TestRecoverSeesThroughErrorPanics(t *testing.T) {
	sentinel := errors.New("typed panic value")
	err := Safe(func() error { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is must see through PanicError to the error value")
	}
}

func TestSafeNoPanic(t *testing.T) {
	if err := Safe(func() error { return nil }); err != nil {
		t.Errorf("Safe without panic: %v", err)
	}
	want := errors.New("plain")
	if err := Safe(func() error { return want }); !errors.Is(err, want) {
		t.Errorf("Safe must pass through plain errors, got %v", err)
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterObs(reg)
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	calls := 0
	attempts, err := Retry(context.Background(), RetryConfig{Attempts: 4}, func(attempt int) error {
		calls++
		if attempt < 3 {
			return fmt.Errorf("iter: %w", ErrNoConvergence)
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Errorf("attempts=%d calls=%d err=%v, want 3/3/nil", attempts, calls, err)
	}
	if got := reg.Counter(MetricRetries).Value(); got != 2 {
		t.Errorf("retry counter = %d, want 2", got)
	}
}

func TestRetryPermanentFailsFast(t *testing.T) {
	boom := errors.New("hard")
	attempts, err := Retry(context.Background(), RetryConfig{Attempts: 5}, func(int) error { return boom })
	if attempts != 1 || !errors.Is(err, boom) {
		t.Errorf("permanent error retried: attempts=%d err=%v", attempts, err)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	attempts, err := Retry(context.Background(), RetryConfig{Attempts: 3}, func(int) error {
		return MarkTransient(errors.New("always"))
	})
	if attempts != 3 || Classify(err) != Transient {
		t.Errorf("attempts=%d err=%v, want 3 attempts and the transient error", attempts, err)
	}
}

func TestRetryCanceledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := Retry(ctx, RetryConfig{Attempts: 3, BaseDelay: 10 * time.Second}, func(int) error {
		return MarkTransient(errors.New("flaky"))
	})
	if Classify(err) != Canceled {
		t.Errorf("want cancellation error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("backoff ignored cancellation: took %v", elapsed)
	}
}

func TestBackoffCapsAndJitter(t *testing.T) {
	rc := RetryConfig{BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
	want := []time.Duration{100, 200, 400, 400, 400}
	for i, w := range want {
		if got := rc.Backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	rc.Seed = 42
	for retry := 1; retry <= 5; retry++ {
		d1, d2 := rc.Backoff(retry), rc.Backoff(retry)
		if d1 != d2 {
			t.Errorf("seeded jitter not deterministic: %v vs %v", d1, d2)
		}
		full := RetryConfig{BaseDelay: rc.BaseDelay, MaxDelay: rc.MaxDelay}.Backoff(retry)
		if d1 < full/2 || d1 > full {
			t.Errorf("jittered Backoff(%d) = %v outside [%v, %v]", retry, d1, full/2, full)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("scaling.solve@fig04=panic, exp.trace@fig01=corrupt; exp.run@fig02=noconverge x2, exp.run=sleep:50ms x*")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Dirs) != 4 {
		t.Fatalf("parsed %d directives, want 4", len(p.Dirs))
	}
	d := p.Dirs[0]
	if d.Point != "scaling.solve" || d.Scope != "fig04" || d.Action != "panic" || d.Count != 1 {
		t.Errorf("dir0 = %+v", d)
	}
	if p.Dirs[2].Count != 2 {
		t.Errorf("dir2 count = %d, want 2", p.Dirs[2].Count)
	}
	d = p.Dirs[3]
	if d.Scope != "" || d.Action != "sleep" || d.Sleep != 50*time.Millisecond || d.Count != -1 {
		t.Errorf("dir3 = %+v", d)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, spec := range []string{
		"nodirective",
		"p=unknownaction",
		"p=sleep:notaduration",
		"p=panic:arg",
		"=panic",
		"p=panic x0",
		"p=panic xz",
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParsePlanSentinels(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil || !p.Empty() || p.Matrix {
		t.Errorf("empty spec: %+v, %v", p, err)
	}
	p, err = ParsePlan("all")
	if err != nil || !p.Empty() || !p.Matrix {
		t.Errorf("'all' spec: %+v, %v", p, err)
	}
}

func TestInjectorFiresOnceScoped(t *testing.T) {
	plan, err := ParsePlan("pt@fig02=noconverge")
	if err != nil {
		t.Fatal(err)
	}
	defer SetInjector(NewInjector(plan))()
	bg := context.Background()
	if err := Hit(WithScope(bg, "fig01"), "pt"); err != nil {
		t.Errorf("wrong scope fired: %v", err)
	}
	if err := Hit(WithScope(bg, "fig02"), "other"); err != nil {
		t.Errorf("wrong point fired: %v", err)
	}
	err = Hit(WithScope(bg, "fig02"), "pt")
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("matching hit: %v, want ErrNoConvergence", err)
	}
	if err := Hit(WithScope(bg, "fig02"), "pt"); err != nil {
		t.Errorf("count-1 directive fired twice: %v", err)
	}
}

func TestInjectorPanicAction(t *testing.T) {
	plan, _ := ParsePlan("pt=panic")
	defer SetInjector(NewInjector(plan))()
	err := Safe(func() error { return Hit(context.Background(), "pt") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic action did not panic: %v", err)
	}
}

func TestInjectorSleepRespectsContext(t *testing.T) {
	plan, _ := ParsePlan("pt=sleep:30s")
	defer SetInjector(NewInjector(plan))()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	err := Hit(ctx, "pt")
	if Classify(err) != Canceled {
		t.Errorf("canceled sleep returned %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("sleep ignored cancellation")
	}
}

func TestInjectorDisabled(t *testing.T) {
	defer SetInjector(nil)()
	if err := Hit(context.Background(), "anything"); err != nil {
		t.Errorf("disabled injector fired: %v", err)
	}
	// An empty, non-matrix plan is equivalent to no injector.
	defer SetInjector(NewInjector(&Plan{}))()
	if active.Load() != nil {
		t.Error("empty plan installed a live injector")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.ndjson")
	l, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	h := HashStrings("fig02", "quick")
	if err := l.Append(CheckpointEntry{ID: "fig02", InputHash: h, Status: StatusOK, Digest: "d1", Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(CheckpointEntry{ID: "fig04", InputHash: h, Status: StatusFailed, Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !l2.CleanMatch("fig02", h) {
		t.Error("ok entry with matching hash must CleanMatch")
	}
	if l2.CleanMatch("fig02", "otherhash") {
		t.Error("hash mismatch must not CleanMatch")
	}
	if l2.CleanMatch("fig04", h) {
		t.Error("failed entry must not CleanMatch")
	}
	if l2.CleanMatch("fig16", h) {
		t.Error("absent entry must not CleanMatch")
	}
	// Last entry per id wins: a later ok entry overrides the failure.
	if err := l2.Append(CheckpointEntry{ID: "fig04", InputHash: h, Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if !l3.CleanMatch("fig04", h) {
		t.Error("later ok entry must win over the earlier failure")
	}
}

func TestCheckpointToleratesGarbageLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.ndjson")
	content := `{"kind":"checkpoint","id":"fig02","input_hash":"h","status":"ok"}
not json at all
{"kind":"other","id":"x"}
{"kind":"checkpoint","id":"fig03","input_hash":"h","status":"ok"` // truncated final line
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !l.CleanMatch("fig02", "h") {
		t.Error("valid entry lost among garbage")
	}
	if l.CleanMatch("fig03", "h") {
		t.Error("truncated entry must not count")
	}
}

func TestHashStringsSeparatorUnambiguous(t *testing.T) {
	if HashStrings("ab", "c") == HashStrings("a", "bc") {
		t.Error("concatenation ambiguity in HashStrings")
	}
	if HashStrings("x") != HashStrings("x") {
		t.Error("HashStrings not deterministic")
	}
}
