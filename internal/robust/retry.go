package robust

import (
	"context"
	"time"
)

// RetryConfig tunes Retry.
type RetryConfig struct {
	// Attempts is the total number of tries (first try included). Values
	// below 1 mean exactly one try.
	Attempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// subsequent retry. Non-positive means no delay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Non-positive means
	// DefaultMaxDelay.
	MaxDelay time.Duration
	// Seed parameterizes the deterministic backoff jitter. Zero disables
	// jitter (fully deterministic delays).
	Seed uint64
}

// DefaultMaxDelay caps retry backoff when RetryConfig.MaxDelay is unset.
const DefaultMaxDelay = 2 * time.Second

// splitmix64 is the 64-bit finalizer from Vigna's splitmix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Backoff returns the delay before retry number retry (1-based):
// BaseDelay·2^(retry-1), capped at MaxDelay. With Seed set, the upper
// half of the delay is replaced by a deterministic seeded fraction
// (half jitter), de-synchronizing concurrent retriers reproducibly.
func (rc RetryConfig) Backoff(retry int) time.Duration {
	if rc.BaseDelay <= 0 || retry < 1 {
		return 0
	}
	ceil := rc.MaxDelay
	if ceil <= 0 {
		ceil = DefaultMaxDelay
	}
	d := rc.BaseDelay
	for i := 1; i < retry && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	if rc.Seed != 0 {
		half := uint64(d / 2)
		frac := splitmix64(rc.Seed^uint64(retry)) >> 32 // 32-bit fraction
		d = time.Duration(half + half*frac>>32)
	}
	return d
}

// Retry runs fn until it succeeds, fails permanently, is canceled, or
// the attempt budget is exhausted. Only Transient-classified errors are
// retried; backoff sleeps are context-aware. It returns the number of
// attempts made and fn's final error (cancellation during backoff is
// reported as a taxonomy cancellation error). Each retry — not the
// first attempt — bumps the robust.retries counter.
func Retry(ctx context.Context, rc RetryConfig, fn func(attempt int) error) (attempts int, err error) {
	total := rc.Attempts
	if total < 1 {
		total = 1
	}
	for attempt := 1; ; attempt++ {
		attempts = attempt
		err = fn(attempt)
		if err == nil || Classify(err) != Transient || attempt == total {
			return attempts, err
		}
		if cerr := Sleep(ctx, rc.Backoff(attempt)); cerr != nil {
			return attempts, cerr
		}
		counterRetries().Inc()
	}
}
