package exp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/robust"
)

// acceptanceExps builds the stub suite for the acceptance scenario: three
// healthy experiments plus "boom" (injected panic), "corrupt" (injected
// trace corruption), and "flaky" (one injected non-convergence, recovered
// by retry). runs counts actual driver executions per index.
func acceptanceExps(runs []atomic.Int64) []Experiment {
	ids := []string{"good0", "boom", "corrupt", "flaky", "good1", "good2"}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		i, id := i, id
		exps[i] = Experiment{ID: id, Title: id, Paper: "n/a",
			Run: func(ctx context.Context, _ Options) (*Result, error) {
				runs[i].Add(1)
				if err := robust.Hit(ctx, "exp.trace"); err != nil {
					return nil, err
				}
				return &Result{ID: id, Values: map[string]float64{"v": float64(i)}}, nil
			}}
	}
	return exps
}

// TestRunSuiteAcceptance walks the ISSUE's seeded fault plan end to end:
// a full run attempts every experiment, recovers the transient via retry,
// reports exactly two hard failures — and a subsequent -resume run
// re-executes only those two.
func TestRunSuiteAcceptance(t *testing.T) {
	plan, err := robust.ParsePlan("exp.run@boom=panic,exp.trace@corrupt=corrupt,exp.run@flaky=noconverge")
	if err != nil {
		t.Fatal(err)
	}
	defer robust.SetInjector(robust.NewInjector(plan))()

	runs := make([]atomic.Int64, 6)
	exps := acceptanceExps(runs)
	ckptPath := filepath.Join(t.TempDir(), "ck.ndjson")
	ckpt, err := robust.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true}
	cfg := SuiteConfig{Workers: 3, Attempts: 3, Backoff: time.Millisecond, Checkpoint: ckpt}
	outcomes, suiteErr := RunSuite(context.Background(), exps, o, cfg)
	ckpt.Close()

	if suiteErr == nil {
		t.Fatal("want joined failures from boom and corrupt")
	}
	if robust.Classify(suiteErr) == robust.Canceled {
		t.Errorf("hard failures must not classify as canceled: %v", suiteErr)
	}
	byID := map[string]Outcome{}
	failed := 0
	for _, oc := range outcomes {
		byID[oc.ID] = oc
		if oc.Status == StatusFailed {
			failed++
		}
	}
	if failed != 2 {
		t.Errorf("%d failed outcomes, want exactly 2:\n%s", failed, SuiteSummary(outcomes))
	}
	var pe *robust.PanicError
	if oc := byID["boom"]; oc.Status != StatusFailed || !errors.As(oc.Err, &pe) {
		t.Errorf("boom = %s (%v), want failed with a contained PanicError", oc.Status, oc.Err)
	}
	if oc := byID["corrupt"]; oc.Status != StatusFailed || !errors.Is(oc.Err, robust.ErrCorruptTrace) {
		t.Errorf("corrupt = %s (%v), want failed wrapping ErrCorruptTrace", oc.Status, oc.Err)
	}
	if oc := byID["flaky"]; oc.Status != StatusOK || oc.Attempts != 2 {
		t.Errorf("flaky = %s attempts=%d (%v), want ok after exactly 2 attempts", oc.Status, oc.Attempts, oc.Err)
	}
	for _, id := range []string{"good0", "good1", "good2"} {
		if oc := byID[id]; oc.Status != StatusOK || oc.Result == nil {
			t.Errorf("%s = %s, want ok with a result", id, oc.Status)
		}
	}

	// Resume: the injected one-shot faults are exhausted, so the two hard
	// failures now succeed — and nothing else re-executes.
	before := make([]int64, 6)
	for i := range runs {
		before[i] = runs[i].Load()
	}
	ckpt2, err := robust.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	cfg.Checkpoint, cfg.Resume = ckpt2, true
	outcomes2, err := RunSuite(context.Background(), exps, o, cfg)
	if err != nil {
		t.Fatalf("resume run failed: %v", err)
	}
	for _, oc := range outcomes2 {
		switch oc.ID {
		case "boom", "corrupt":
			if oc.Status != StatusOK {
				t.Errorf("resume: %s = %s (%v), want ok", oc.ID, oc.Status, oc.Err)
			}
		default:
			if oc.Status != StatusSkipped {
				t.Errorf("resume: %s = %s, want skipped", oc.ID, oc.Status)
			}
		}
	}
	for i, e := range exps {
		delta := runs[i].Load() - before[i]
		want := int64(0)
		if e.ID == "boom" || e.ID == "corrupt" {
			want = 1
		}
		if delta != want {
			t.Errorf("resume executed %s %d times, want %d", e.ID, delta, want)
		}
	}

	// A third resume over the now-fully-clean checkpoint skips everything.
	ckpt3, err := robust.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt3.Close()
	cfg.Checkpoint = ckpt3
	outcomes3, err := RunSuite(context.Background(), exps, o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range outcomes3 {
		if oc.Status != StatusSkipped {
			t.Errorf("clean resume: %s = %s, want skipped", oc.ID, oc.Status)
		}
	}
}

// TestRunSuiteResumeInvalidatedByOptions asserts the input hash guards
// resume: changing run options re-executes despite clean entries.
func TestRunSuiteResumeInvalidatedByOptions(t *testing.T) {
	runs := make([]atomic.Int64, 6)
	exps := acceptanceExps(runs)[:2]
	ckptPath := filepath.Join(t.TempDir(), "ck.ndjson")
	ckpt, err := robust.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SuiteConfig{Workers: 2, Checkpoint: ckpt}
	if _, err := RunSuite(context.Background(), exps, Options{Quick: true}, cfg); err != nil {
		t.Fatal(err)
	}
	ckpt.Close()
	ckpt2, err := robust.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	cfg.Checkpoint, cfg.Resume = ckpt2, true
	outcomes, err := RunSuite(context.Background(), exps, Options{Quick: false}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range outcomes {
		if oc.Status != StatusOK {
			t.Errorf("%s = %s, want re-executed ok after option change", oc.ID, oc.Status)
		}
	}
	if got := runs[0].Load(); got != 2 {
		t.Errorf("good0 executed %d times, want 2", got)
	}
}

// TestRunSuiteCancellationFlush cancels mid-suite and asserts the SIGINT
// contract: RunSuite returns within the 2-second flush budget with every
// outcome settled and a checkpoint entry per experiment.
func TestRunSuiteCancellationFlush(t *testing.T) {
	const n = 8
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	exps := make([]Experiment, n)
	for i := range exps {
		id := string(rune('a'+i)) + "-block"
		exps[i] = Experiment{ID: id, Title: id, Paper: "n/a",
			Run: func(ctx context.Context, _ Options) (*Result, error) {
				started.Add(1)
				<-ctx.Done()
				return nil, robust.Err(ctx)
			}}
	}
	ckptPath := filepath.Join(t.TempDir(), "ck.ndjson")
	ckpt, err := robust.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for started.Load() < 3 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	startAt := time.Now()
	outcomes, suiteErr := RunSuite(ctx, exps, Options{Quick: true}, SuiteConfig{Workers: 3, Attempts: 3, Checkpoint: ckpt})
	if wall := time.Since(startAt); wall > 2*time.Second {
		t.Errorf("RunSuite took %v to drain after cancellation, want under 2s", wall)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	if suiteErr == nil || robust.Classify(suiteErr) != robust.Canceled {
		t.Errorf("suite error %v must classify as Canceled", suiteErr)
	}
	for _, oc := range outcomes {
		if oc.Status != StatusCanceled {
			t.Errorf("%s = %s, want canceled", oc.ID, oc.Status)
		}
		if oc.Attempts > 1 {
			t.Errorf("%s retried %d times after cancellation; cancellation must not retry", oc.ID, oc.Attempts)
		}
	}
	ckpt2, err := robust.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	for _, e := range exps {
		entry, ok := ckpt2.Prior(e.ID)
		if !ok || entry.Status != robust.StatusCanceled {
			t.Errorf("checkpoint entry for %s = %+v (found %v), want canceled", e.ID, entry, ok)
		}
	}
}

// TestRunSuiteAttemptTimeout pins the distinction between a per-attempt
// deadline (an ordinary failure, exit code 1) and a user interrupt: the
// suite error must NOT classify as canceled.
func TestRunSuiteAttemptTimeout(t *testing.T) {
	exps := []Experiment{{ID: "slow", Title: "slow", Paper: "n/a",
		Run: func(ctx context.Context, _ Options) (*Result, error) {
			select {
			case <-time.After(5 * time.Second):
				return &Result{ID: "slow"}, nil
			case <-ctx.Done():
				return nil, robust.Err(ctx)
			}
		}}}
	outcomes, err := RunSuite(context.Background(), exps, Options{}, SuiteConfig{Workers: 1, Timeout: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("want timeout failure")
	}
	if robust.Classify(err) == robust.Canceled {
		t.Errorf("attempt timeout leaked into cancellation classification: %v", err)
	}
	if outcomes[0].Status != StatusFailed {
		t.Errorf("slow = %s, want failed", outcomes[0].Status)
	}
}

// TestRunSuiteTracesEveryRun: every experiment a suite runs gets its own
// run trace, which holds its exp.<id> span and reads its allocations:
// nine experiments that each allocate 1 MiB must each read at least
// 1 MiB, which one-in-eight sampling would fail. A retried experiment
// records one span per attempt, and a skipped one has no trace.
func TestRunSuiteTracesEveryRun(t *testing.T) {
	plan, err := robust.ParsePlan("exp.run@e8=noconverge")
	if err != nil {
		t.Fatal(err)
	}
	defer robust.SetInjector(robust.NewInjector(plan))()
	exps := make([]Experiment, 9)
	for i := range exps {
		id := fmt.Sprintf("e%d", i)
		exps[i] = Experiment{ID: id, Title: id, Paper: "n/a",
			Run: func(context.Context, Options) (*Result, error) {
				runtime.KeepAlive(make([]byte, 1<<20))
				return &Result{ID: id}, nil
			}}
	}
	ckptPath := filepath.Join(t.TempDir(), "ck.ndjson")
	ckpt, err := robust.OpenCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SuiteConfig{Workers: 3, Attempts: 2, Checkpoint: ckpt}
	outcomes, err := RunSuite(context.Background(), exps, Options{}, cfg)
	ckpt.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, oc := range outcomes {
		rec := oc.Trace
		if rec == nil {
			t.Fatalf("%s has no run trace", oc.ID)
		}
		if rec.Route != "exp."+oc.ID || rec.AllocBytes < 1<<20 || oc.Wall != rec.Wall {
			t.Errorf("%s trace: route %q, alloc %d B, wall %v (outcome %v), want exp.%s, >= 1 MiB, the outcome's wall",
				oc.ID, rec.Route, rec.AllocBytes, rec.Wall, oc.Wall, oc.ID)
		}
		spans := 0
		for _, sp := range rec.Spans {
			if sp.Name == "exp."+oc.ID && sp.Parent == 0 {
				spans++
			}
		}
		if spans != oc.Attempts {
			t.Errorf("%s trace holds %d exp spans over %d attempts, want one each", oc.ID, spans, oc.Attempts)
		}
	}
	if outcomes[8].Attempts != 2 {
		t.Errorf("e8 attempts = %d, want 2 (one injected transient)", outcomes[8].Attempts)
	}
	if cfg.Checkpoint, err = robust.OpenCheckpoint(ckptPath); err != nil {
		t.Fatal(err)
	}
	defer cfg.Checkpoint.Close()
	cfg.Resume = true
	outcomes, err = RunSuite(context.Background(), exps[:1], Options{}, cfg)
	if err != nil || outcomes[0].Status != StatusSkipped || outcomes[0].Trace != nil {
		t.Errorf("resumed e0 = %s with trace %v (err %v), want skipped without one", outcomes[0].Status, outcomes[0].Trace, err)
	}
}

// TestInputHash asserts every run option feeds the resume fingerprint.
func TestInputHash(t *testing.T) {
	base := InputHash("fig01", Options{})
	if InputHash("fig02", Options{}) == base {
		t.Error("hash ignores the experiment id")
	}
	if InputHash("fig01", Options{Quick: true}) == base {
		t.Error("hash ignores Quick")
	}
	if InputHash("fig01", Options{Seed: 7}) == base {
		t.Error("hash ignores Seed")
	}
	if InputHash("fig01", Options{Brute: true}) == base {
		t.Error("hash ignores Brute")
	}
	if InputHash("fig01", Options{}) != base {
		t.Error("hash is not deterministic")
	}
}

// TestFaultMatrix sweeps fault plans across every injection point the
// runner exercises and asserts the invariant the tentpole promises: no
// fault escapes as a library panic, and the suite always settles every
// outcome. Under BANDWALL_FAULTS=all (the CI fault-injection job) the
// matrix broadens to scoped, repeated, and mixed plans.
func TestFaultMatrix(t *testing.T) {
	plans := []string{
		"exp.run=panic",
		"exp.run=noconverge",
		"exp.trace=corrupt",
		"exp.run=domain",
	}
	if os.Getenv(robust.EnvFaults) == "all" {
		plans = append(plans,
			"exp.run=transient",
			"exp.run=panic x3",
			"exp.trace=corrupt x*",
			"exp.run@good1=panic,exp.trace@good2=corrupt,exp.run@flaky=noconverge",
			"exp.run=sleep:1ms x*,exp.run@boom=panic",
			"numeric.root=noconverge",
			"scaling.solve=domain",
		)
	}
	for _, spec := range plans {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			plan, err := robust.ParsePlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			restore := robust.SetInjector(robust.NewInjector(plan))
			defer restore()
			runs := make([]atomic.Int64, 6)
			exps := acceptanceExps(runs)
			outcomes, _ := RunSuite(context.Background(), exps, Options{Quick: true},
				SuiteConfig{Workers: 3, Attempts: 2, Backoff: time.Millisecond})
			if len(outcomes) != len(exps) {
				t.Fatalf("got %d outcomes, want %d", len(outcomes), len(exps))
			}
			for _, oc := range outcomes {
				if oc.Status == "" {
					t.Errorf("%s has no settled status", oc.ID)
				}
				if oc.Status == StatusCanceled {
					t.Errorf("%s canceled with no cancellation in the plan", oc.ID)
				}
			}
		})
	}
}

// stubExperiments builds n experiments whose run durations vary so that,
// under concurrency, completion order differs from input order.
func stubExperiments(n int, ran *atomic.Int64) []Experiment {
	exps := make([]Experiment, n)
	for i := 0; i < n; i++ {
		i := i
		id := fmt.Sprintf("stub%02d", i)
		exps[i] = Experiment{
			ID:    id,
			Title: "stub " + id,
			Paper: "n/a",
			Run: func(ctx context.Context, o Options) (*Result, error) {
				// Later experiments finish sooner.
				time.Sleep(time.Duration((n-i)%5) * time.Millisecond)
				if ran != nil {
					ran.Add(1)
				}
				return &Result{ID: id, Values: map[string]float64{"i": float64(i)}}, nil
			},
		}
	}
	return exps
}

// gatedExperiments builds n experiments that record the peak number of
// drivers in flight at once.
func gatedExperiments(n int, peak *atomic.Int64) []Experiment {
	var inFlight atomic.Int64
	exps := make([]Experiment, n)
	for i := range exps {
		id := fmt.Sprintf("gate%02d", i)
		exps[i] = Experiment{ID: id, Title: id, Paper: "n/a", Run: func(context.Context, Options) (*Result, error) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inFlight.Add(-1)
			return &Result{ID: id}, nil
		}}
	}
	return exps
}

// TestRunAllParallelOrder runs a suite on 4 workers (the CI race job
// executes this file under -race) and asserts the outcomes match input
// order even though completion order is scrambled.
func TestRunAllParallelOrder(t *testing.T) {
	var ran atomic.Int64
	exps := stubExperiments(24, &ran)
	outcomes, err := RunSuite(context.Background(), exps, Options{Quick: true}, SuiteConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(exps) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(exps))
	}
	if got := ran.Load(); got != int64(len(exps)) {
		t.Errorf("ran %d experiments, want %d", got, len(exps))
	}
	for i, oc := range outcomes {
		if oc.Result == nil {
			t.Fatalf("outcomes[%d] has no result", i)
		}
		if oc.Result.ID != exps[i].ID {
			t.Errorf("outcomes[%d] = %s, want %s (input order must be preserved)", i, oc.Result.ID, exps[i].ID)
		}
	}
}

// TestRunAllParallelProgress asserts OnDone fires once per experiment
// with a completion count reaching total.
func TestRunAllParallelProgress(t *testing.T) {
	var mu sync.Mutex
	var calls, maxDone int
	onDone := func(done, total int, id, status string) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > maxDone {
			maxDone = done
		}
		if total != 12 {
			t.Errorf("total = %d, want 12", total)
		}
		if !strings.HasPrefix(id, "stub") || status != StatusOK {
			t.Errorf("unexpected id %q, status %q", id, status)
		}
	}
	if _, err := RunSuite(context.Background(), stubExperiments(12, nil), Options{Quick: true}, SuiteConfig{Workers: 4, OnDone: onDone}); err != nil {
		t.Fatal(err)
	}
	if calls != 12 || maxDone != 12 {
		t.Errorf("callback fired %d times (max done %d), want 12/12", calls, maxDone)
	}
}

// TestRunAllParallelErrors fails two experiments and asserts BOTH errors
// survive (errors.Join), not just the first in input order, and that the
// other experiments' results survive the failures.
func TestRunAllParallelErrors(t *testing.T) {
	errBoom := errors.New("boom")
	errBang := errors.New("bang")
	exps := stubExperiments(8, nil)
	exps[2] = Experiment{ID: "bad-early", Title: "t", Paper: "p", Run: func(context.Context, Options) (*Result, error) { return nil, errBoom }}
	exps[6] = Experiment{ID: "bad-late", Title: "t", Paper: "p", Run: func(context.Context, Options) (*Result, error) { return nil, errBang }}
	outcomes, err := RunSuite(context.Background(), exps, Options{Quick: true}, SuiteConfig{Workers: 4})
	if err == nil {
		t.Fatal("want error from failing experiments")
	}
	for i, oc := range outcomes {
		failed := i == 2 || i == 6
		if failed && (oc.Result != nil || oc.Status != StatusFailed) {
			t.Errorf("outcomes[%d] = %s with result %v, want failed without one", i, oc.Status, oc.Result)
		}
		if !failed && oc.Result == nil {
			t.Errorf("outcomes[%d] has no result; completed work must survive partial failure", i)
		}
	}
	if !errors.Is(err, errBoom) || !errors.Is(err, errBang) {
		t.Errorf("joined error must wrap both failures, got: %v", err)
	}
	for _, want := range []string{"exp bad-early", "exp bad-late"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestRunAllParallelBadWorkers: a worker count below 1 runs the suite on
// one worker.
func TestRunAllParallelBadWorkers(t *testing.T) {
	for _, w := range []int{0, -1} {
		var peak atomic.Int64
		outcomes, err := RunSuite(context.Background(), gatedExperiments(4, &peak), Options{Quick: true}, SuiteConfig{Workers: w})
		if err != nil || len(outcomes) != 4 {
			t.Errorf("workers=%d: %d outcomes, %v", w, len(outcomes), err)
		}
		if p := peak.Load(); p != 1 {
			t.Errorf("workers=%d: peak concurrency %d, want 1", w, p)
		}
	}
}

// TestRunAllParallelBoundsConcurrency asserts the worker pool's point: no
// more experiments are in flight at once than workers.
func TestRunAllParallelBoundsConcurrency(t *testing.T) {
	const workers = 3
	var peak atomic.Int64
	if _, err := RunSuite(context.Background(), gatedExperiments(10, &peak), Options{Quick: true}, SuiteConfig{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds workers %d", p, workers)
	}
}

// TestRunAllParallelWorkerPanic panics experiments — both via the fault
// injector and an organic panic in a driver — and asserts the pool
// survives: every healthy experiment completes with a result, the joined
// error wraps a *robust.PanicError per failure, and no worker goroutine
// leaks.
func TestRunAllParallelWorkerPanic(t *testing.T) {
	exps := stubExperiments(10, nil)
	exps[3] = Experiment{ID: "panicker", Title: "t", Paper: "p", Run: func(context.Context, Options) (*Result, error) {
		panic("driver bug")
	}}
	plan, err := robust.ParsePlan("exp.run@stub07=panic")
	if err != nil {
		t.Fatal(err)
	}
	defer robust.SetInjector(robust.NewInjector(plan))()

	before := runtime.NumGoroutine()
	outcomes, err := RunSuite(context.Background(), exps, Options{Quick: true}, SuiteConfig{Workers: 4})
	if err == nil {
		t.Fatal("want joined panic errors")
	}
	var pe *robust.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("error does not carry a *robust.PanicError: %v", err)
	}
	for _, want := range []string{"exp panicker", "exp stub07", "panic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error missing %q:\n%v", want, err)
		}
	}
	var ok int
	for i, oc := range outcomes {
		if oc.Result != nil {
			ok++
		} else if i != 3 && i != 7 {
			t.Errorf("healthy experiment %s lost its result", exps[i].ID)
		}
	}
	if ok != 8 {
		t.Errorf("%d experiments completed, want 8", ok)
	}
	waitForGoroutines(t, before)
}

// TestRunAllParallelCancellation cancels mid-run and asserts prompt
// drain: started experiments finish or abort, queued ones never start,
// the pool's goroutines all exit, and the joined error classifies as
// Canceled.
func TestRunAllParallelCancellation(t *testing.T) {
	const n = 12
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int64
	exps := make([]Experiment, n)
	for i := range exps {
		id := fmt.Sprintf("cancel%02d", i)
		exps[i] = Experiment{ID: id, Title: id, Paper: "n/a", Run: func(ctx context.Context, _ Options) (*Result, error) {
			started.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, robust.Err(ctx)
			}
			return &Result{ID: id}, nil
		}}
	}

	before := runtime.NumGoroutine()
	done := make(chan struct{})
	var outcomes []Outcome
	var err error
	go func() {
		defer close(done)
		outcomes, err = RunSuite(ctx, exps, Options{Quick: true}, SuiteConfig{Workers: 3})
	}()
	for started.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not drain after cancellation")
	}
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if robust.Classify(err) != robust.Canceled {
		t.Errorf("Classify(%v) = %v, want Canceled", err, robust.Classify(err))
	}
	if len(outcomes) != n {
		t.Fatalf("got %d outcome slots, want %d", len(outcomes), n)
	}
	// Queued experiments must not have started after cancellation: the
	// in-flight three may have completed (release raced the cancel), but
	// at least the tail must be canceled.
	if started.Load() == n {
		t.Error("cancellation did not stop queued experiments from starting")
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count returns to (near) the
// baseline, failing the test if pool workers leak past a generous grace
// period. Background runtime goroutines make exact equality too strict.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
}
