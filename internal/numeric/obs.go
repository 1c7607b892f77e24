package numeric

import "repro/internal/obs"

// Metric names exported to the process-default obs registry. Each root
// finder records its iterations-to-convergence per call (including calls
// that exhaust the budget, which land in the top bucket), and every
// failed bracketing attempt bumps a shared counter — together they make
// the solvers' convergence behavior externally visible.
const (
	obsBisectIters     = "numeric.bisect.iterations"
	obsBrentIters      = "numeric.brent.iterations"
	obsBracketFailures = "numeric.bracket.failures"
)

// iterBuckets covers 0 (already-converged endpoints) through the
// package-wide maxIter budget.
var iterBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, float64(maxIter)}

// observeIters records one solver call's iteration count. Disabled-path
// cost: one atomic pointer load and a nil check, no allocations.
func observeIters(name string, iters int) {
	if reg := obs.Default(); reg != nil {
		reg.Histogram(name, iterBuckets).Observe(float64(iters))
	}
}

// observeBracketFailure counts one ErrNoBracket occurrence.
func observeBracketFailure() {
	if reg := obs.Default(); reg != nil {
		reg.Counter(obsBracketFailures).Inc()
	}
}

// RegisterObs pre-creates this package's instruments in reg so metric
// dumps have a stable shape even for runs that never solve.
func RegisterObs(reg *obs.Registry) {
	reg.Histogram(obsBisectIters, iterBuckets)
	reg.Histogram(obsBrentIters, iterBuckets)
	reg.Counter(obsBracketFailures)
}
