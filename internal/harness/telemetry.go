package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// ExportTelemetry writes a result's telemetry under dir: the full output as
// series.json, one CSV per probe series (slashes in series names flatten to
// underscores), and the event trace as trace.jsonl when one was captured. A
// packet chain run's figure rows go alongside as figure.json, which names the
// series and reduction of each figure metric, and one figure_*.csv per
// series. Returns an error if the result carries no telemetry.
func ExportTelemetry(dir string, res *scenario.Result) error {
	tel := res.Telemetry
	if tel == nil {
		return fmt.Errorf("harness: result %s has no telemetry (spec lacks a telemetry block)", res.Hash)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: telemetry dir: %w", err)
	}
	var werr error // the first write that failed; each file is written as it is made
	write := func(name string, data []byte) {
		if werr == nil {
			werr = os.WriteFile(filepath.Join(dir, name), data, 0o644)
		}
	}
	for _, o := range []struct {
		name, csvPrefix string
		out             *telemetry.Output
	}{{"series.json", "", tel}, {"figure.json", "figure_", tel.Figure}} {
		if o.out == nil {
			continue
		}
		blob, err := json.MarshalIndent(o.out, "", "  ")
		if err != nil {
			return fmt.Errorf("harness: encode telemetry: %w", err)
		}
		write(o.name, append(blob, '\n'))
		for i, s := range o.out.Series {
			write(o.csvPrefix+strings.ReplaceAll(s.Name, "/", "_")+".csv", []byte(o.out.SeriesCSV(i)))
		}
	}
	if len(tel.Trace) > 0 {
		var b bytes.Buffer
		if err := telemetry.WriteTraceJSONL(&b, tel.Trace); err != nil {
			return fmt.Errorf("harness: trace export: %w", err)
		}
		write("trace.jsonl", b.Bytes())
	}
	if werr != nil {
		return fmt.Errorf("harness: telemetry export: %w", werr)
	}
	return nil
}
