package optimize

import (
	"fmt"
	"strings"

	"repro/internal/render"
	"repro/internal/scenario"
)

// Tables renders the search result for terminals and CSV export: a
// best-design summary and the full Pareto frontier with binding-wall
// attribution. Both the CLI and the serve tier's text report use it.
func (r *Result) Tables() []*render.Table {
	title := r.Spec.Title
	if title == "" {
		title = r.Spec.ID
	}
	best := &render.Table{
		Title:   fmt.Sprintf("%s — best design (objective: %s, chip %s CEAs)", title, r.Objective, scenario.TrimFloat(r.Spec.N2)),
		Headers: []string{"stack", "split S=C/P", "cost", "cores", "exact", "binding"},
	}
	best.AddRow(r.Best.Label, r.Best.Split, r.Best.Cost, r.Best.Cores, r.Best.Exact, r.Best.Binding)

	front := &render.Table{
		Title:   fmt.Sprintf("Pareto frontier (%d stacks)", r.Stacks),
		Headers: []string{"cost", r.Objective, "stack", "split", "binding", "walls"},
	}
	for _, p := range r.Frontier {
		front.AddRow(p.Cost, objectiveValue(r.Objective, p), p.Label, p.Split, p.Binding, wallsSummary(p))
	}
	return []*render.Table{best, front}
}

// wallsSummary compresses a point's wall headroom into "kind usage/limit"
// pairs for the frontier table.
func wallsSummary(p DesignPoint) string {
	if len(p.Walls) == 0 {
		return "-"
	}
	parts := make([]string, len(p.Walls))
	for i, w := range p.Walls {
		parts[i] = fmt.Sprintf("%s %s/%s", w.Kind, scenario.TrimFloat(w.Usage), scenario.TrimFloat(w.Limit))
	}
	return strings.Join(parts, ", ")
}
