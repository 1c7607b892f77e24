package exp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// The fault-tolerant suite runner: RunSuite is what `bandwall run` drives.
// On top of the plain parallel pool it layers, per experiment,
//
//   - resume: a clean checkpoint entry with a matching input hash skips
//     the experiment entirely (robust.checkpoint.skips counts them);
//   - retry: transient failures (non-convergence, injected transient
//     faults) retry with capped exponential backoff;
//   - per-attempt timeouts, reported as ordinary experiment failures so
//     one slow configuration cannot be confused with a user interrupt;
//   - checkpointing: one NDJSON entry per finished experiment, flushed
//     and synced before the next experiment starts on that worker, so a
//     SIGINT between (or during) experiments loses nothing.
//
// Panic containment lives one level down in RunOne so every runner gets
// it; classification of the final error decides the outcome status.

// Outcome statuses (the checkpoint file reuses the robust.Status*
// constants; StatusSkipped only ever appears in memory).
const (
	StatusOK       = robust.StatusOK
	StatusFailed   = robust.StatusFailed
	StatusCanceled = robust.StatusCanceled
	StatusSkipped  = "skipped"
)

// Outcome is one experiment's fate under RunSuite.
type Outcome struct {
	ID       string
	Title    string
	Status   string // ok | failed | canceled | skipped
	Result   *Result
	Err      error
	Attempts int
	Wall     time.Duration // Trace's wall: every attempt and backoff
	// Trace is the experiment's finished run trace, nil when skipped. Its
	// route is "exp.<id>"; it holds one exp.<id> span per attempt with
	// the engine's and solver's spans nested under them, and its
	// allocation delta is sampled.
	Trace *obs.TraceRecord
}

// SuiteConfig tunes RunSuite.
type SuiteConfig struct {
	// Workers bounds concurrent experiments; values below 1 mean 1.
	Workers int
	// Attempts is the per-experiment try budget (first try included);
	// values below 1 mean 1. Only transient failures retry.
	Attempts int
	// Backoff is the base delay before the first retry (doubling per
	// retry, capped at robust.DefaultMaxDelay). Zero means no delay.
	Backoff time.Duration
	// Timeout bounds each attempt; 0 means no per-attempt deadline. A
	// timed-out attempt fails the experiment (status failed), it does not
	// cancel the suite.
	Timeout time.Duration
	// Checkpoint, when non-nil, records every finished experiment and —
	// with Resume — skips clean prior completions.
	Checkpoint *robust.CheckpointLog
	// Resume skips experiments whose prior checkpoint entry is status ok
	// with a matching input hash.
	Resume bool
	// OnDone, when non-nil, fires after each experiment settles (skips
	// included) with the count settled so far, the total, the experiment
	// id, and its outcome status. Called from worker goroutines.
	OnDone func(done, total int, id, status string)
}

// InputHash fingerprints everything that determines an experiment's
// output: its id and the options Quick, Seed and Brute; changing any
// re-executes everything on resume. Only Quick is a CLI flag (-quick).
func InputHash(id string, o Options) string {
	return robust.HashStrings(id, fmt.Sprintf("quick=%t seed=%d brute=%t", o.Quick, o.Seed, o.Brute))
}

// resultDigest fingerprints a result's headline values — enough to tell
// whether a re-run reproduced the checkpointed outcome.
func resultDigest(r *Result) string {
	if r == nil {
		return ""
	}
	keys := r.SortedValueKeys()
	parts := make([]string, 0, 2*len(keys)+1)
	parts = append(parts, r.ID)
	for _, k := range keys {
		parts = append(parts, k, fmt.Sprintf("%g", r.Values[k]))
	}
	return robust.HashStrings(parts...)
}

// RunSuite executes exps through the fault-tolerance pipeline described
// above. The returned slice is always len(exps), in input order, with
// every entry's Status set; the error joins the hard failures (and the
// suite-level cancellation cause, when the parent context was canceled)
// or is nil when everything completed, was skipped, or recovered.
func RunSuite(ctx context.Context, exps []Experiment, o Options, cfg SuiteConfig) ([]Outcome, error) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	out := make([]Outcome, len(exps))
	idxs := make(chan int)
	var done atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idxs {
				out[i] = runGuarded(ctx, exps[i], o, cfg)
				if cfg.OnDone != nil {
					cfg.OnDone(int(done.Add(1)), len(exps), exps[i].ID, out[i].Status)
				}
			}
		}()
	}
	for i := range exps {
		idxs <- i
	}
	close(idxs)
	wg.Wait()

	var failures []error
	for _, oc := range out {
		if oc.Status == StatusFailed {
			failures = append(failures, fmt.Errorf("exp %s: %w", oc.ID, oc.Err))
		}
	}
	if cerr := robust.Err(ctx); cerr != nil {
		failures = append(failures, cerr)
	}
	if len(failures) > 0 {
		return out, errors.Join(failures...)
	}
	return out, nil
}

// runGuarded settles one experiment: resume check, retry loop around the
// contained RunOne, classification, checkpoint append.
func runGuarded(ctx context.Context, e Experiment, o Options, cfg SuiteConfig) Outcome {
	oc := Outcome{ID: e.ID, Title: e.Title}
	hash := InputHash(e.ID, o)
	if cfg.Resume && cfg.Checkpoint.CleanMatch(e.ID, hash) {
		robust.CountCheckpointSkip()
		oc.Status = StatusSkipped
		return oc
	}
	tr := obs.NewTrace(obs.NewTraceID(), "exp."+e.ID, true)
	ctx = obs.WithTrace(ctx, tr)
	rc := robust.RetryConfig{Attempts: cfg.Attempts, BaseDelay: cfg.Backoff}
	var res *Result
	attempts, err := robust.Retry(ctx, rc, func(int) error {
		actx := ctx
		if cfg.Timeout > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, cfg.Timeout)
			defer cancel()
		}
		r, rerr := RunOne(actx, e, o)
		if rerr == nil {
			res = r
		}
		return rerr
	})
	oc.Attempts = attempts
	oc.Trace = tr.Finish(0)
	oc.Wall = oc.Trace.Wall

	entry := robust.CheckpointEntry{
		ID:        e.ID,
		InputHash: hash,
		Attempts:  attempts,
		WallMS:    float64(oc.Wall.Nanoseconds()) / 1e6,
	}
	switch {
	case err == nil:
		oc.Status = StatusOK
		oc.Result = res
		entry.Status = robust.StatusOK
		entry.Digest = resultDigest(res)
	case robust.Classify(err) == robust.Canceled && robust.Err(ctx) != nil:
		// The parent context died: the whole suite is being canceled.
		robust.CountCanceled()
		oc.Status = StatusCanceled
		oc.Err = err
		entry.Status = robust.StatusCanceled
		entry.Err = err.Error()
	case robust.Classify(err) == robust.Canceled:
		// Only the per-attempt deadline fired: an experiment failure, not
		// a user interrupt. Reported with the %v verb so the cancellation
		// sentinel does not leak into the suite-level classification.
		robust.CountCanceled()
		oc.Status = StatusFailed
		oc.Err = fmt.Errorf("timed out after %v: %v", cfg.Timeout, err)
		entry.Status = robust.StatusFailed
		entry.Err = oc.Err.Error()
	default:
		oc.Status = StatusFailed
		oc.Err = err
		entry.Status = robust.StatusFailed
		entry.Err = err.Error()
	}
	if cerr := cfg.Checkpoint.Append(entry); cerr != nil && oc.Err == nil {
		// A checkpoint that cannot be written must surface — resume
		// correctness depends on it — but never clobbers a run failure.
		oc.Status = StatusFailed
		oc.Err = cerr
	}
	return oc
}

// SuiteSummary renders a one-paragraph accounting of the outcomes: counts
// by status plus one line per non-ok experiment (stack traces elided; the
// per-experiment Err carries them for -v style debugging).
func SuiteSummary(outcomes []Outcome) string {
	counts := map[string]int{}
	for _, oc := range outcomes {
		counts[oc.Status]++
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "suite: %d ok, %d skipped, %d failed, %d canceled (of %d)\n",
		counts[StatusOK], counts[StatusSkipped], counts[StatusFailed], counts[StatusCanceled], len(outcomes))
	bad := make([]Outcome, 0, len(outcomes))
	for _, oc := range outcomes {
		if oc.Status == StatusFailed || oc.Status == StatusCanceled {
			bad = append(bad, oc)
		}
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].ID < bad[j].ID })
	for _, oc := range bad {
		msg := "canceled"
		if oc.Err != nil {
			msg = firstLine(oc.Err.Error())
		}
		fmt.Fprintf(&sb, "  %-12s %-8s attempts=%d  %s\n", oc.ID, oc.Status, oc.Attempts, msg)
	}
	return sb.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
