package experiments

import (
	"fmt"
	"math"

	"repro/internal/scenario"
)

// must unwraps a bind-time result in experiment code, whose compiled-in
// specs are known valid.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// SweepTable renders an executed scenario sweep as a typed Table: one
// column per sweep axis (or a single label column for unswept specs),
// then one column per metric. Rate metrics become ratio cells
// (successes/trials), mean metrics float cells ("n/a" when no run
// defined the value).
func SweepTable(res *scenario.SweepResult) *Table {
	title := res.Spec.Name
	if title == "" {
		title = fmt.Sprintf("scenario: %s n=%d t=%d", res.Spec.Protocol, res.Spec.N, res.Spec.T)
	}
	cols := append([]string(nil), res.Axes...)
	if len(cols) == 0 {
		cols = []string{"scenario"}
	}
	var metricCols []string
	if len(res.Points) > 0 {
		for _, m := range res.Points[0].Metrics {
			metricCols = append(metricCols, m.Name)
		}
	}
	tbl := NewTable(title, append(cols, metricCols...)...)
	tbl.Note = res.Spec.Doc
	for _, pt := range res.Points {
		var row []any
		if len(res.Axes) == 0 {
			row = append(row, string(res.Spec.Protocol))
		}
		for _, c := range pt.Coords {
			if c.IsStr {
				row = append(row, c.Str)
			} else {
				row = append(row, c.Num)
			}
		}
		for _, m := range pt.Metrics {
			switch {
			case m.Kind == scenario.KindRate:
				row = append(row, m.Ratio(pt.Trials))
			case math.IsNaN(m.Value):
				row = append(row, "n/a")
			default:
				row = append(row, m.Value)
			}
		}
		tbl.AddRow(row...)
	}
	return tbl
}

// SweepResult wraps an executed sweep in the structured Result record the
// report package emits as JSON/CSV, mirroring what experiment runs
// produce.
func SweepResult(res *scenario.SweepResult) *Result {
	id := res.Spec.Name
	if id == "" {
		id = "scenario"
	}
	r := NewResult(id, res.Spec.Doc, "", []*Table{SweepTable(res)})
	r.Seed = res.Spec.Seed
	return r
}
