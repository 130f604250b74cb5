package harness

import "repro/internal/scenario"

// SetRun sets the Runner.run seam from the package's external tests — the
// ones that import sweepd, which imports this package.
func (r *Runner) SetRun(run func(scenario.Spec) (*scenario.Result, error)) {
	r.run = run
}
