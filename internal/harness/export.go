package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/scenario"
)

// Row is one exported sweep line: the identifying sweep coordinates plus
// the flat metric map.
type Row struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Scheme  string  `json:"scheme"`
	Backend string  `json:"backend"`
	Size    int     `json:"size,omitempty"`
	Load    float64 `json:"load,omitempty"`
	Seed    int64   `json:"seed"`
	Hash    string  `json:"hash,omitempty"`
	// Runs counts how many results aggregated into this row (1 for raw
	// rows, the seed count after Aggregate).
	Runs    int                `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// Rows flattens results into export rows, one per run.
func Rows(results []*scenario.Result) []Row {
	rows := make([]Row, len(results))
	for i, res := range results {
		rows[i] = Row{
			Name:    res.Spec.Name,
			Kind:    res.Spec.Kind,
			Scheme:  res.Spec.Scheme,
			Backend: res.Spec.BackendName(),
			Load:    res.Spec.Load,
			Seed:    res.Spec.Seed,
			Hash:    res.Hash,
			Runs:    1,
			Metrics: res.Metrics,
		}
		if dim, _ := res.Spec.SizeDim(); dim != nil {
			rows[i].Size = *dim
		}
	}
	return rows
}

// Aggregate averages rows across seeds: rows sharing (name, kind, scheme,
// backend, size, load) merge into one row with per-metric means, Runs counting the
// merged seeds and Seed/Hash cleared. Output order follows first
// appearance, so sweep ordering is preserved.
func Aggregate(rows []Row) []Row {
	type key struct {
		name, kind, scheme, backend string
		size                        int
		load                        float64
	}
	index := map[key]int{}
	var out []Row
	counts := map[key]map[string]int{}
	for _, r := range rows {
		k := key{r.Name, r.Kind, r.Scheme, r.Backend, r.Size, r.Load}
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, Row{Name: r.Name, Kind: r.Kind, Scheme: r.Scheme,
				Backend: r.Backend, Size: r.Size, Load: r.Load,
				Metrics: map[string]float64{}})
			counts[k] = map[string]int{}
		}
		out[i].Runs += r.Runs
		for m, v := range r.Metrics {
			out[i].Metrics[m] += v
			counts[k][m]++
		}
	}
	for k, i := range index {
		for m, n := range counts[k] {
			out[i].Metrics[m] /= float64(n)
		}
	}
	return out
}

// metricColumns returns the sorted union of metric names across rows.
func metricColumns(rows []Row) []string {
	set := map[string]bool{}
	for _, r := range rows {
		for m := range r.Metrics {
			set[m] = true
		}
	}
	cols := make([]string, 0, len(set))
	for m := range set {
		cols = append(cols, m)
	}
	sort.Strings(cols)
	return cols
}

// WriteJSON exports rows as an indented JSON array.
func WriteJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// WriteCSV exports rows as CSV with one column per metric (sorted union;
// rows missing a metric leave the cell empty).
func WriteCSV(w io.Writer, rows []Row) error {
	cols := metricColumns(rows)
	cw := csv.NewWriter(w)
	header := append([]string{"name", "kind", "scheme", "backend", "size", "load", "seed", "runs"}, cols...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Name, r.Kind, r.Scheme, r.Backend,
			strconv.Itoa(r.Size),
			strconv.FormatFloat(r.Load, 'g', -1, 64),
			strconv.FormatInt(r.Seed, 10),
			strconv.Itoa(r.Runs)}
		for _, c := range cols {
			v, ok := r.Metrics[c]
			if !ok {
				rec = append(rec, "")
				continue
			}
			rec = append(rec, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FormatTable renders rows as an aligned text table for terminals, keeping
// at most six metric columns — the simulated network's ahead of the
// simulator's self-measurements, so the ones that fit are the figure's
// (CSV/JSON carry the full set).
func FormatTable(rows []Row) string {
	cols := metricColumns(rows)
	scenario.SortMetrics(cols)
	if len(cols) > 6 {
		cols = cols[:6]
	}
	out := fmt.Sprintf("%-24s %-12s %-12s %-7s %5s %6s %6s %5s", "name", "kind", "scheme", "backend", "size", "load", "seed", "runs")
	for _, c := range cols {
		out += fmt.Sprintf(" %18s", c)
	}
	out += "\n"
	for _, r := range rows {
		out += fmt.Sprintf("%-24s %-12s %-12s %-7s %5d %6.2f %6d %5d", r.Name, r.Kind, r.Scheme, r.Backend, r.Size, r.Load, r.Seed, r.Runs)
		for _, c := range cols {
			if v, ok := r.Metrics[c]; ok {
				out += fmt.Sprintf(" %18.4g", v)
			} else {
				out += fmt.Sprintf(" %18s", "-")
			}
		}
		out += "\n"
	}
	return out
}
