package flit

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Delta detection for incremental campaigns.
//
// A long-lived campaign re-runs the same study as the toolchain, the
// matrix, or the workload drifts, warm-starting each run from the previous
// generation's artifacts. The DeltaReport is the answer to the question
// those re-runs exist to ask: *which* outputs changed against the warmed
// baseline? Three producers build one:
//
//   - DeltaTracker observes a warm-started run and classifies every
//     build/run key by provenance — answered from the baseline
//     (hit-from-baseline), computed fresh, or recomputed in verify mode
//     and found to diverge from the baseline's recorded bits;
//   - DiffArtifacts diffs two artifact sets offline, with no re-running
//     (the `flit delta` subcommand);
//   - experiments.Engine surfaces the tracker on every CLI subcommand via
//     -delta-out and -stats.
//
// Values are compared as IEEE-754 bit patterns, never as decimal floats: a
// variability monitor that rounded away low bits would miss exactly the
// deviations the FLiT study exists to catch, and NaN results (the Laghos
// NaN bug) must compare equal to themselves.

// DeltaChange is one key recorded by both the baseline and the current run
// whose values differ bit-exactly.
type DeltaChange struct {
	Key string    `json:"key"`
	Old RunRecord `json:"old"`
	New RunRecord `json:"new"`
}

// DeltaReport is the structured diff of a run (or artifact set) against a
// baseline artifact set: new keys the baseline did not record, dropped
// baseline keys the run never requested, and value-changed keys with both
// bit patterns. BaselineHits and Fresh are the warm-start provenance
// counters (zero for offline diffs); Unchanged counts keys present on both
// sides with identical bits.
type DeltaReport struct {
	Engine          string        `json:"engine"`
	BaselineCommand []string      `json:"baseline_command,omitempty"`
	Command         []string      `json:"command,omitempty"`
	New             []RunRecord   `json:"new"`
	Dropped         []RunRecord   `json:"dropped"`
	Changed         []DeltaChange `json:"changed"`
	Unchanged       int           `json:"unchanged"`
	BaselineHits    int           `json:"baseline_hits"`
	Fresh           int           `json:"fresh"`
}

// Empty reports whether the run reproduced the baseline exactly: nothing
// new, nothing dropped, nothing value-changed.
func (r *DeltaReport) Empty() bool {
	return len(r.New) == 0 && len(r.Dropped) == 0 && len(r.Changed) == 0
}

// Summary renders the one-line human digest the CLI prints under -stats.
func (r *DeltaReport) Summary() string {
	return fmt.Sprintf("delta: new=%d dropped=%d changed=%d unchanged=%d (baseline-hits=%d fresh=%d)",
		len(r.New), len(r.Dropped), len(r.Changed), r.Unchanged, r.BaselineHits, r.Fresh)
}

// Render writes the report for humans: the summary line, then one line per
// new/dropped/changed key in sorted order. Deterministic — equal reports
// render to equal bytes.
func (r *DeltaReport) Render(w io.Writer) {
	fmt.Fprintln(w, r.Summary())
	for _, rec := range r.New {
		fmt.Fprintf(w, "new      %q = %s\n", rec.Key, recValue(rec))
	}
	for _, rec := range r.Dropped {
		fmt.Fprintf(w, "dropped  %q = %s\n", rec.Key, recValue(rec))
	}
	for _, ch := range r.Changed {
		fmt.Fprintf(w, "changed  %q: %s -> %s\n", ch.Key, recValue(ch.Old), recValue(ch.New))
	}
}

// WriteJSON serializes the report (indented, deterministic).
func (r *DeltaReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteDeltaReportFile writes the report to path (the -delta-out flag's
// implementation, shared by every CLI).
func WriteDeltaReportFile(r *DeltaReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flit: writing delta report: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("flit: writing delta report: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("flit: writing delta report: %w", err)
	}
	return nil
}

// recValue renders a record's value with full bit patterns (plus readable
// decimals) so a changed line pinpoints the exact deviation.
func recValue(r RunRecord) string {
	if r.Err != "" || r.Segfault {
		return fmt.Sprintf("error(%q)", r.Err)
	}
	if !r.IsVec {
		return fmt.Sprintf("%#016x (%g)", r.Scalar, math.Float64frombits(r.Scalar))
	}
	parts := make([]string, 0, len(r.Vec))
	for i, bits := range r.Vec {
		if i == 4 && len(r.Vec) > 5 {
			parts = append(parts, fmt.Sprintf("... %d more", len(r.Vec)-i))
			break
		}
		parts = append(parts, fmt.Sprintf("%#016x", bits))
	}
	return "vec[" + strings.Join(parts, " ") + "]"
}

// equalRecord compares two records of the same key bit-exactly.
func equalRecord(a, b RunRecord) bool {
	if a.IsVec != b.IsVec || a.Scalar != b.Scalar ||
		a.Err != b.Err || a.Segfault != b.Segfault || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if a.Vec[i] != b.Vec[i] {
			return false
		}
	}
	return true
}

// sort puts every list in key order so reports are deterministic.
func (r *DeltaReport) sort() {
	sort.Slice(r.New, func(i, j int) bool { return r.New[i].Key < r.New[j].Key })
	sort.Slice(r.Dropped, func(i, j int) bool { return r.Dropped[i].Key < r.Dropped[j].Key })
	sort.Slice(r.Changed, func(i, j int) bool { return r.Changed[i].Key < r.Changed[j].Key })
}

// DeltaTracker accumulates a baseline from warm-start artifacts and, after
// the run, classifies the cache's contents against it. In normal mode the
// baseline is also imported into the cache (the incremental fast path:
// every covered evaluation is answered from it). In verify mode nothing is
// imported — every evaluation the run requests is recomputed and compared
// bit-exactly against the baseline's recorded value, turning a
// warm-started run into a variability monitor for the toolchain itself.
type DeltaTracker struct {
	verify   bool
	baseline map[string]RunRecord
	baseCmd  []string
}

// NewDeltaTracker returns an empty tracker. verify selects
// recompute-and-compare over import-and-trust.
func NewDeltaTracker(verify bool) *DeltaTracker {
	return &DeltaTracker{verify: verify, baseline: make(map[string]RunRecord)}
}

// Verify reports the tracker's mode.
func (t *DeltaTracker) Verify() bool { return t.verify }

// BaselineSize reports how many distinct run keys the baseline records.
func (t *DeltaTracker) BaselineSize() int { return len(t.baseline) }

// Seed folds one baseline artifact into the tracker and — in normal mode —
// imports it into the cache. Artifacts are validated individually like
// warm-start (format and engine version; no complete shard set required),
// and two baseline artifacts disagreeing on a key's bits are rejected: a
// self-contradictory baseline cannot anchor a delta.
func (t *DeltaTracker) Seed(c *Cache, a *Artifact) error {
	if err := a.Check(); err != nil {
		return err
	}
	for _, r := range a.Runs {
		if prev, ok := t.baseline[r.Key]; ok {
			if !equalRecord(prev, r) {
				return fmt.Errorf("flit: baseline artifacts disagree on key %q", r.Key)
			}
			continue
		}
		t.baseline[r.Key] = r
	}
	if t.baseCmd == nil {
		t.baseCmd = a.Command
	}
	if t.verify {
		return nil
	}
	return c.Import(a)
}

// Report classifies every run record of the cache against the baseline
// and returns the delta. command is recorded as the current run's identity
// (the baseline's recorded command rides along for context).
//
// Provenance, per key: an imported record a lookup was served with is a
// baseline hit; a computed one (including verify mode's recomputations)
// is fresh. Either kind the baseline covers compares bit-exactly — equal
// is unchanged, different is changed (an imported record can differ when
// a merge's shard set was imported before the baseline, since the first
// import wins) — and one it does not cover is new. Baseline keys no
// lookup reached are dropped. Imported records outside the baseline (a
// merge's shard set) belong to no delta and are skipped.
func (t *DeltaTracker) Report(c *Cache, command []string) *DeltaReport {
	rep := &DeltaReport{
		Engine:          EngineVersion,
		BaselineCommand: t.baseCmd,
		Command:         command,
		New:             []RunRecord{},
		Dropped:         []RunRecord{},
		Changed:         []DeltaChange{},
	}
	seen := make(map[string]bool, len(t.baseline))
	c.eachRun(func(rec RunRecord, imported bool) {
		base, inBase := t.baseline[rec.Key]
		switch {
		case imported && !inBase:
			return
		case imported:
			rep.BaselineHits++
		default:
			rep.Fresh++
		}
		switch {
		case !inBase:
			rep.New = append(rep.New, rec)
		case equalRecord(base, rec):
			seen[rec.Key] = true
			rep.Unchanged++
		default:
			seen[rec.Key] = true
			rep.Changed = append(rep.Changed, DeltaChange{Key: rec.Key, Old: base, New: rec})
		}
	})
	for key, base := range t.baseline {
		if !seen[key] {
			rep.Dropped = append(rep.Dropped, base)
		}
	}
	rep.sort()
	return rep
}

// DiffArtifacts diffs two artifact sets offline, without re-running
// anything. Each set is validated exactly like `flit merge` validates its
// input — every artifact from this engine version, one command per set, a
// complete shard partition (so "dropped" means dropped, not "lost to a
// missing shard") — and artifacts within a set disagreeing on a key's bits
// are rejected. The two sets' commands may differ (an incremental campaign
// re-runs as its configuration drifts); both are recorded in the report.
func DiffArtifacts(baseline, current []*Artifact) (*DeltaReport, error) {
	bmap, bcmd, err := unionRuns("baseline", baseline)
	if err != nil {
		return nil, err
	}
	cmap, ccmd, err := unionRuns("current", current)
	if err != nil {
		return nil, err
	}
	rep := &DeltaReport{
		Engine:          EngineVersion,
		BaselineCommand: bcmd,
		Command:         ccmd,
		New:             []RunRecord{},
		Dropped:         []RunRecord{},
		Changed:         []DeltaChange{},
	}
	for key, cur := range cmap {
		base, ok := bmap[key]
		switch {
		case !ok:
			rep.New = append(rep.New, cur)
		case equalRecord(base, cur):
			rep.Unchanged++
		default:
			rep.Changed = append(rep.Changed, DeltaChange{Key: key, Old: base, New: cur})
		}
	}
	for key, base := range bmap {
		if _, ok := cmap[key]; !ok {
			rep.Dropped = append(rep.Dropped, base)
		}
	}
	rep.sort()
	return rep, nil
}

// unionRuns validates one artifact set and flattens its run records into a
// map, rejecting cross-artifact disagreement on any key (shards
// legitimately overlap on shared baseline cells, with identical values).
func unionRuns(label string, arts []*Artifact) (map[string]RunRecord, []string, error) {
	if err := ValidateShardSet(arts); err != nil {
		return nil, nil, fmt.Errorf("flit: %s artifact set: %w", label, err)
	}
	m := make(map[string]RunRecord)
	for _, a := range arts {
		for _, r := range a.Runs {
			if prev, ok := m[r.Key]; ok {
				if !equalRecord(prev, r) {
					return nil, nil, fmt.Errorf("flit: %s artifact set disagrees on key %q", label, r.Key)
				}
				continue
			}
			m[r.Key] = r
		}
	}
	return m, arts[0].Command, nil
}
