package optimize

import "sort"

// objectiveValue reads the maximized coordinate of a design point.
func objectiveValue(objective string, p DesignPoint) float64 {
	if objective == "exact" {
		return p.Exact
	}
	return float64(p.Cores)
}

// Dominates reports whether a dominates b under the (maximize objective,
// minimize cost) order: at least as good on both coordinates, strictly
// better on one.
func Dominates(objective string, a, b DesignPoint) bool {
	va, vb := objectiveValue(objective, a), objectiveValue(objective, b)
	if va < vb || a.Cost > b.Cost {
		return false
	}
	return va > vb || a.Cost < b.Cost
}

// frontier extracts the Pareto-maximal set: every point no candidate
// dominates, deduplicated on (value, cost) keeping the earliest-enumerated
// candidate (ties resolve toward simpler stacks). points must be in
// enumeration order. The result is sorted by ascending cost, which on a
// frontier means strictly ascending objective value — so the last entry is
// the best design.
func frontier(points []DesignPoint, objective string) []DesignPoint {
	sorted := make([]DesignPoint, len(points))
	copy(sorted, points)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Cost != sorted[j].Cost {
			return sorted[i].Cost < sorted[j].Cost
		}
		return objectiveValue(objective, sorted[i]) > objectiveValue(objective, sorted[j])
	})
	// Single ascending-cost sweep: a point joins the frontier only when it
	// strictly improves the best value seen at lower-or-equal cost. Equal
	// (value, cost) duplicates fail the strict test, so the stable sort
	// keeps the earliest-enumerated one.
	var out []DesignPoint
	best := -1.0
	for _, p := range sorted {
		if v := objectiveValue(objective, p); v > best {
			best = v
			out = append(out, p)
		}
	}
	return out
}
