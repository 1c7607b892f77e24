package exp

import (
	"context"
	"repro/internal/render"
	"repro/internal/technique"
)

func table2Exp() Experiment {
	return Experiment{
		ID:    "table2",
		Title: "Summary of memory traffic reduction techniques",
		Paper: "Each technique's realistic/pessimistic/optimistic parameters plus qualitative effectiveness, range, and complexity ratings.",
		Run:   runTable2,
	}
}

func runTable2(ctx context.Context, _ Options) (*Result, error) {
	tb := &render.Table{
		Title:   "Table 2: memory traffic reduction techniques",
		Headers: []string{"Technique", "Label", "Category", "Realistic", "Pessimistic", "Optimistic", "Effectiveness", "Range", "Complexity"},
	}
	values := map[string]float64{}
	for _, e := range technique.Catalog {
		tb.AddRow(
			e.Name, e.Label, e.Cat.String(),
			e.Scenario[technique.Realistic],
			e.Scenario[technique.Pessimistic],
			e.Scenario[technique.Optimistic],
			e.Effectiveness.String(), e.Range.String(), e.Complexity.String(),
		)
		values["rows"]++
	}
	return &Result{
		ID:     "table2",
		Title:  "Technique summary",
		Tables: []*render.Table{tb},
		Notes: []string{
			"DRAM caches combine high effectiveness, low variability, and low complexity — the paper's most promising single technique",
			"3D stacking is ranked most complex; it shines when combined with other techniques",
		},
		Values: values,
	}, nil
}
