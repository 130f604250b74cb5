package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// ExportTelemetry writes a result's telemetry under dir: the full output as
// series.json, one CSV per probe series (slashes in series names become
// directories-unfriendly, so they flatten to underscores), and the event
// trace as trace.jsonl when one was captured. Returns an error if the result
// carries no telemetry.
func ExportTelemetry(dir string, res *scenario.Result) error {
	if res.Telemetry == nil {
		return fmt.Errorf("harness: result %s has no telemetry (spec lacks a telemetry block)", res.Hash)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("harness: telemetry dir: %w", err)
	}
	blob, err := json.MarshalIndent(res.Telemetry, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: encode telemetry: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "series.json"), append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("harness: telemetry export: %w", err)
	}
	for i, s := range res.Telemetry.Series {
		name := strings.ReplaceAll(s.Name, "/", "_") + ".csv"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(res.Telemetry.SeriesCSV(i)), 0o644); err != nil {
			return fmt.Errorf("harness: telemetry export: %w", err)
		}
	}
	if len(res.Telemetry.Trace) > 0 {
		f, err := os.Create(filepath.Join(dir, "trace.jsonl"))
		if err != nil {
			return fmt.Errorf("harness: trace export: %w", err)
		}
		werr := telemetry.WriteTraceJSONL(f, res.Telemetry.Trace)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("harness: trace export: %w", werr)
		}
		if cerr != nil {
			return fmt.Errorf("harness: trace export: %w", cerr)
		}
	}
	return nil
}
