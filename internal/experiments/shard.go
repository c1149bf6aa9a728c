package experiments

import (
	"fmt"

	"repro/internal/flit"
)

// Sharded execution of the experiments suite.
//
// A shard run partitions the deterministic job index space of every driver
// — matrix baselines and cells, Table 2 searches, Table 4 row
// configurations, injection site × OP' pairs — executes only the owned
// jobs, and exports everything its build/run cache computed as a
// self-describing JSON artifact (flit.Artifact, keyed by
// link.Executable.Key + flit.TestKey). Merging imports the union of the
// shards' artifacts into a fresh engine's cache and replays the recorded
// command: every evaluation is then answered from the imported records, so
// the merge is cheap, and because an imported record is bit-identical to a
// recomputation, the merged output is byte-identical to an unsharded run
// by construction.
// Small sequential phases (the motivation example, the Findings narrative,
// the adaptive File Bisect prefix of each search) run redundantly on every
// shard — the shard boundary is the expensive fan-outs, exactly as the
// paper's cluster sweeps partitioned compilations, not bookkeeping.

// ExportArtifact snapshots everything this engine's cache has computed as
// one shard artifact. command is the canonical CLI command the artifact
// replays under `flit merge` (nil for library use).
func (e *Engine) ExportArtifact(command []string) *flit.Artifact {
	return e.cache.Export(e.shard, command)
}

// ImportArtifacts validates a shard set, then imports the union of the
// artifacts' results into this engine's cache. Call it on a fresh engine
// before running any experiment; replaying the artifacts' recorded command
// then reproduces the unsharded output byte for byte.
func (e *Engine) ImportArtifacts(arts ...*flit.Artifact) error {
	if err := flit.ValidateShardSet(arts); err != nil {
		return fmt.Errorf("experiments: merging shard artifacts: %w", err)
	}
	for i, a := range arts {
		if err := e.cache.Import(a); err != nil {
			return fmt.Errorf("experiments: shard artifact %d: %w", i, err)
		}
	}
	return nil
}

// WarmStart imports previously exported artifacts into this engine's cache
// without requiring a complete shard set: each artifact is validated
// individually (format and engine version — foreign results are still
// rejected), but shard coordinates and recorded commands may differ and
// gaps are fine. A warm start reuses yesterday's executions, it does not
// replay a command: whatever the artifacts do not cover is recomputed, and
// because a cache hit is bit-identical to a recomputation the output is
// unchanged — only the wall-clock shrinks. This is the incremental half of
// the shard protocol: any shard artifact doubles as a warm-start cache.
// With delta tracking enabled (EnableDelta), each artifact also becomes
// part of the run's baseline: the delta detector classifies every key
// against it, and in verify mode nothing is imported — covered
// evaluations are recomputed and compared bit-exactly instead.
func (e *Engine) WarmStart(arts ...*flit.Artifact) error {
	for i, a := range arts {
		var err error
		if e.delta != nil {
			err = e.delta.Seed(e.cache, a)
		} else {
			err = e.cache.Import(a)
		}
		if err != nil {
			return fmt.Errorf("experiments: warm-start artifact %d: %w", i, err)
		}
	}
	return nil
}
