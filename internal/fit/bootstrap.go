package fit

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cachesim"
)

// BootstrapResult carries a point estimate of α with a bootstrap
// confidence interval — the uncertainty a Fig 1-style calibration should
// report before the α is trusted for multi-generation projections
// (Fig 17 shows how much the projections move with α).
type BootstrapResult struct {
	Point     Result  // fit on the full curve
	AlphaLo   float64 // lower CI bound on α
	AlphaHi   float64 // upper CI bound on α
	Level     float64 // confidence level, e.g. 0.9
	Resamples int
}

// Bootstrap fits the miss curve and estimates a confidence interval on α
// by resampling curve points with replacement. It needs at least four
// points; level must be in (0, 1).
func Bootstrap(points []cachesim.CurvePoint, resamples int, level float64, seed int64) (BootstrapResult, error) {
	if resamples < 10 {
		return BootstrapResult{}, fmt.Errorf("fit: need ≥10 resamples, got %d", resamples)
	}
	if !(level > 0) || level >= 1 {
		return BootstrapResult{}, fmt.Errorf("fit: confidence level must be in (0,1), got %g", level)
	}
	if len(points) < 4 {
		return BootstrapResult{}, fmt.Errorf("fit: need ≥4 points for bootstrap, got %d", len(points))
	}
	point, err := PowerLaw(points)
	if err != nil {
		return BootstrapResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	alphas := make([]float64, 0, resamples)
	sample := make([]cachesim.CurvePoint, len(points))
	for r := 0; r < resamples; r++ {
		// Resample until the draw has enough distinct sizes to fit.
		for attempt := 0; ; attempt++ {
			for i := range sample {
				sample[i] = points[rng.Intn(len(points))]
			}
			res, err := PowerLaw(sample)
			if err == nil {
				alphas = append(alphas, res.Alpha)
				break
			}
			if attempt > 100 {
				return BootstrapResult{}, fmt.Errorf("fit: bootstrap resampling keeps degenerating: %w", err)
			}
		}
	}
	sort.Float64s(alphas)
	tail := (1 - level) / 2
	lo := alphas[int(tail*float64(len(alphas)))]
	hiIdx := int((1 - tail) * float64(len(alphas)))
	if hiIdx >= len(alphas) {
		hiIdx = len(alphas) - 1
	}
	hi := alphas[hiIdx]
	return BootstrapResult{
		Point:     point,
		AlphaLo:   lo,
		AlphaHi:   hi,
		Level:     level,
		Resamples: resamples,
	}, nil
}
