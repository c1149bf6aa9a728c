package experiments

import (
	"errors"

	"repro/internal/flit"
)

// Incremental campaigns: delta detection against a warmed baseline.
//
// With delta tracking enabled, WarmStart records every baseline run record
// in addition to (in normal mode) importing it into the cache, and after the
// run DeltaReport classifies every build/run key the engine touched:
// answered from the baseline, freshly executed, dropped, or — in verify
// mode, which recomputes instead of trusting the baseline — bit-exactly
// diverged. The CLI surfaces this on every subcommand as -delta-out (the
// structured report) and under -stats (the one-line summary).

// EnableDelta turns on delta tracking for this engine's warm starts.
// Call it before WarmStart; verify selects recompute-and-compare (nothing
// is imported; every baseline-covered evaluation is recomputed and compared
// bit-exactly) over import-and-trust (the incremental fast path).
func (e *Engine) EnableDelta(verify bool) {
	e.delta = flit.NewDeltaTracker(verify)
}

// DeltaEnabled reports whether this engine tracks warm-start provenance.
func (e *Engine) DeltaEnabled() bool { return e.delta != nil }

// DeltaReport classifies the engine's cache against the warmed baseline
// and returns the structured delta. command is recorded as the current
// run's identity. Call it after the run completes — the report reflects
// whatever the drivers have executed so far.
func (e *Engine) DeltaReport(command []string) (*flit.DeltaReport, error) {
	if e.delta == nil {
		return nil, errors.New("experiments: delta tracking not enabled (EnableDelta before WarmStart)")
	}
	return e.delta.Report(e.cache, command), nil
}
