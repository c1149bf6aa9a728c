package coord

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/store"
)

// The journal is the coordinator's crash-safety story: one JSON file,
// rewritten through store.WriteFileAtomic after every acknowledged state
// change, so the file on disk is always one complete, internally
// consistent snapshot — never a torn one. Recovery is therefore trivial
// (read the newest snapshot) and conservative: an acknowledged lease
// stays leased across a restart (its worker keeps heartbeating the same
// lease ID), an acknowledged completion stays completed, and nothing is
// ever double-scheduled, because the journal is written *before* the
// acknowledgment leaves the coordinator.
//
// Version 3 adds failure containment on top of the v2 multi-tenant
// snapshot: per-shard attempt counts, quarantine flags, retained failure
// reports, and the per-campaign report counter. A v2 journal is a valid
// v3 journal with every new field zero, so the v2→v3 migration is a pure
// in-place re-stamp: decode, rewrite atomically under version 3, done —
// crash-tolerant because no file ever moves. Version 1 (one campaign per
// coordinator, PR 8) still migrates on recovery: the campaign is wrapped
// in the multi-tenant envelope under the ID its spec would be submitted
// under today, and its artifacts move from the flat artifacts/ root into
// the per-campaign directory that ID names.

// journalShard is one shard's persisted state.
type journalShard struct {
	Done         bool            `json:"done,omitempty"`
	Artifact     string          `json:"artifact,omitempty"`
	LeaseID      string          `json:"lease_id,omitempty"`
	Worker       string          `json:"worker,omitempty"`
	ExpiryUnixMS int64           `json:"expiry_unix_ms,omitempty"`
	Attempts     int             `json:"attempts,omitempty"`
	Quarantined  bool            `json:"quarantined,omitempty"`
	Failures     []FailureReport `json:"failures,omitempty"`
}

// zero reports whether the record is an untouched shard's, which encodes
// as {}: every field above is zero (TestJournalShardZero checks that none
// is left out).
func (js *journalShard) zero() bool {
	return !js.Done && js.Artifact == "" && js.LeaseID == "" && js.Worker == "" &&
		js.ExpiryUnixMS == 0 && js.Attempts == 0 && !js.Quarantined && len(js.Failures) == 0
}

// record is the shard's journal record.
func (s *shardState) record() journalShard {
	js := journalShard{Done: s.done, Artifact: s.artifact,
		Attempts: int(s.attempts), Quarantined: s.quarantined,
		Failures: s.failures}
	if l := s.lease; l != nil {
		js.LeaseID, js.Worker = l.id, l.worker
		if !l.expiry.IsZero() {
			js.ExpiryUnixMS = l.expiry.UnixMilli()
		}
	}
	return js
}

// journalCampaign is one campaign's persisted state.
type journalCampaign struct {
	ID          string         `json:"id"`
	Spec        Spec           `json:"spec"`
	Seq         int64          `json:"seq"`
	Releases    int64          `json:"releases"`
	FailReports int64          `json:"fail_reports,omitempty"`
	Shards      []journalShard `json:"shards"`
}

// journalFile is the persisted v2 coordinator snapshot.
type journalFile struct {
	Version   int               `json:"version"`
	Engine    string            `json:"engine"`
	Campaigns []journalCampaign `json:"campaigns"`
}

// journalFileV1 is the PR 8 single-campaign snapshot, read only to migrate.
type journalFileV1 struct {
	Version  int            `json:"version"`
	Spec     Spec           `json:"spec"`
	Seq      int64          `json:"seq"`
	Releases int64          `json:"releases"`
	Shards   []journalShard `json:"shards"`
}

// journalLocked atomically persists the current state. Callers hold mu.
// Every acknowledged mutation passes through here, so this is also where
// the listing's content tag is dropped — once the write is done, not
// before: until then the mutation is unacknowledged, so a listing
// answered 304 from the old tag meanwhile is ordered before it, and a
// fleet poll never waits behind the fsync.
func (c *Coordinator) journalLocked() error {
	defer c.dropListTagLocked()
	jf := journalFile{Version: JournalVersion, Engine: c.engine,
		Campaigns: make([]journalCampaign, 0, len(c.order))}
	// Every mutation rewrites the whole snapshot, so its records are most
	// of a coordinator's garbage. A campaign whose shards are all
	// untouched — queued, or every grant handed back — records nothing of
	// its own: it shares blank.
	var blank []journalShard
	for _, id := range c.order {
		cp := c.campaigns[id]
		var recs []journalShard
		for i := range cp.shards {
			js := cp.shards[i].record()
			if recs == nil {
				if js.zero() {
					continue
				}
				recs = make([]journalShard, len(cp.shards))
			}
			recs[i] = js
		}
		if recs == nil {
			if len(blank) < len(cp.shards) {
				blank = make([]journalShard, len(cp.shards))
			}
			recs = blank[:len(cp.shards)]
		}
		jf.Campaigns = append(jf.Campaigns, journalCampaign{ID: cp.id, Spec: cp.spec,
			Seq: cp.seq, Releases: cp.releases, FailReports: cp.failReports, Shards: recs})
	}
	buf, err := json.Marshal(jf)
	if err != nil {
		return fmt.Errorf("coord: encoding journal: %w", err)
	}
	if err := store.WriteFileAtomic(filepath.Join(c.dir, journalName), buf); err != nil {
		return fmt.Errorf("coord: writing journal: %w", err)
	}
	return nil
}

// recover rebuilds the tenancy from a journal's bytes. A v1 journal is
// migrated in place; a newer version refuses (it may record state this
// build cannot schedule faithfully), as does a journal fenced to a
// different engine — its artifacts are not interchangeable with anything
// this build would run.
func (c *Coordinator) recover(raw []byte) error {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return fmt.Errorf("coord: %s holds an unreadable journal (%v) — refusing to treat it as a coordinator directory",
			c.dir, err)
	}
	var jf journalFile
	restamp := false
	switch probe.Version {
	case JournalVersion, 2:
		// A v2 snapshot is shape-compatible with v3 (the containment
		// fields simply decode to their zero values), so migration is a
		// re-stamp: decode here, rewrite under the current version once
		// the tenancy is rebuilt. A crash between decode and rewrite
		// leaves the v2 file untouched, so migration just reruns.
		if err := json.Unmarshal(raw, &jf); err != nil {
			return fmt.Errorf("coord: parsing journal: %w", err)
		}
		if jf.Engine != c.engine {
			return fmt.Errorf("coord: journaled tenancy is engine %q, this build is %q: results are not interchangeable",
				jf.Engine, c.engine)
		}
		restamp = probe.Version != JournalVersion
	case 1:
		migrated, err := c.migrateV1(raw)
		if err != nil {
			return err
		}
		jf = migrated
	default:
		return fmt.Errorf("coord: journal format v%d, this build reads v1-v%d", probe.Version, JournalVersion)
	}
	for _, jc := range jf.Campaigns {
		if jc.Spec.Shards < 1 || len(jc.Shards) != jc.Spec.Shards {
			return fmt.Errorf("coord: journal campaign %s declares %d shards but records %d", jc.ID, jc.Spec.Shards, len(jc.Shards))
		}
		if jc.Spec.Engine != c.engine {
			return fmt.Errorf("coord: journaled campaign %s is engine %q, this build is %q: results are not interchangeable",
				jc.ID, jc.Spec.Engine, c.engine)
		}
		if want := CampaignID(jc.Spec); jc.ID != want {
			return fmt.Errorf("coord: journal campaign %s does not match its spec (its coordinates name %s) — refusing a corrupt journal",
				jc.ID, want)
		}
		if _, dup := c.campaigns[jc.ID]; dup {
			return fmt.Errorf("coord: journal lists campaign %s twice", jc.ID)
		}
		if jc.FailReports < 0 {
			return fmt.Errorf("coord: journal campaign %s records a negative failure count — refusing a corrupt journal", jc.ID)
		}
		cp := &campaign{id: jc.ID, spec: jc.Spec, seq: jc.Seq,
			releases: jc.Releases, failReports: jc.FailReports,
			shards: make([]shardState, len(jc.Shards))}
		for i, js := range jc.Shards {
			if js.Attempts < 0 {
				return fmt.Errorf("coord: journal campaign %s records a negative attempt count on shard %d — refusing a corrupt journal", jc.ID, i)
			}
			if js.Attempts > math.MaxInt32 {
				return fmt.Errorf("coord: journal campaign %s records %d attempts on shard %d, beyond the %d this build counts — refusing a corrupt journal",
					jc.ID, js.Attempts, i, math.MaxInt32)
			}
			s := shardState{done: js.Done, artifact: js.Artifact,
				attempts: int32(js.Attempts), quarantined: js.Quarantined,
				failures: js.Failures}
			if js.Done && js.Quarantined {
				// A shard cannot be both finished and poisoned; a journal that
				// claims so was not written by this code, and trusting either
				// half could resurrect a quarantined shard as leasable.
				return fmt.Errorf("coord: journal campaign %s marks shard %d both complete and quarantined — refusing a corrupt journal", jc.ID, i)
			}
			if js.LeaseID != "" {
				// Only a lease ID makes a lease; a worker or expiry recorded
				// without one names nothing a heartbeat could renew.
				s.lease = &shardLease{id: js.LeaseID, worker: js.Worker}
				if js.ExpiryUnixMS != 0 {
					s.lease.expiry = time.UnixMilli(js.ExpiryUnixMS)
				}
			}
			if s.done {
				// A completed shard must still have its artifact; a journal that
				// says done while the file is gone would validate-fail at the end
				// with a confusing error, so catch it at recovery.
				if s.artifact == "" {
					return fmt.Errorf("coord: journal campaign %s marks shard %d complete without an artifact", jc.ID, i)
				}
				if _, err := os.Stat(filepath.Join(c.ArtifactDir(jc.ID), s.artifact)); err != nil {
					return fmt.Errorf("coord: journal campaign %s marks shard %d complete but its artifact is unreadable: %v", jc.ID, i, err)
				}
			}
			cp.shards[i] = s
		}
		if err := os.MkdirAll(c.ArtifactDir(jc.ID), 0o755); err != nil {
			return fmt.Errorf("coord: recovering campaign %s: %w", jc.ID, err)
		}
		c.campaigns[jc.ID] = cp
		c.order = append(c.order, jc.ID)
	}
	if restamp {
		// Rewrite the freshly validated tenancy under the current journal
		// version so migration runs at most once. The v1 path rewrites
		// inside migrateV1 (it also moves artifacts); the v2 path lands
		// here.
		if err := c.journalLocked(); err != nil {
			return fmt.Errorf("coord: re-stamping migrated journal: %w", err)
		}
	}
	return nil
}

// migrateV1 lifts a PR 8 single-campaign journal into the v2 tenancy.
// The campaign keeps everything — done shards stay done, live lease IDs
// keep working, the straggler counter carries over — and gains the ID
// its spec would be submitted under today. Its artifacts move from the
// flat artifacts/ root into artifacts/<id>/, and the v2 journal is
// written before this returns, so migration runs at most once.
func (c *Coordinator) migrateV1(raw []byte) (journalFile, error) {
	var v1 journalFileV1
	if err := json.Unmarshal(raw, &v1); err != nil {
		return journalFile{}, fmt.Errorf("coord: parsing v1 journal: %w", err)
	}
	if v1.Spec.Engine != c.engine {
		return journalFile{}, fmt.Errorf("coord: journaled campaign is engine %q, this build is %q: results are not interchangeable",
			v1.Spec.Engine, c.engine)
	}
	if v1.Spec.Shards < 1 || len(v1.Shards) != v1.Spec.Shards {
		return journalFile{}, fmt.Errorf("coord: journal declares %d shards but records %d", v1.Spec.Shards, len(v1.Shards))
	}
	id := CampaignID(v1.Spec)
	if err := os.MkdirAll(c.ArtifactDir(id), 0o755); err != nil {
		return journalFile{}, fmt.Errorf("coord: migrating journal: %w", err)
	}
	for i := range v1.Shards {
		js := &v1.Shards[i]
		if !js.Done || js.Artifact == "" {
			continue
		}
		src := filepath.Join(c.dir, artifactsDir, js.Artifact)
		dst := filepath.Join(c.ArtifactDir(id), js.Artifact)
		if err := os.Rename(src, dst); err != nil {
			// A previous migration attempt may have moved this file and then
			// crashed before the v2 journal landed; the file already being in
			// place is success, not failure.
			if _, statErr := os.Stat(dst); statErr == nil && os.IsNotExist(err) {
				continue
			}
			return journalFile{}, fmt.Errorf("coord: migrating shard %d artifact: %w", i, err)
		}
	}
	jf := journalFile{Version: JournalVersion, Engine: c.engine,
		Campaigns: []journalCampaign{{ID: id, Spec: v1.Spec, Seq: v1.Seq,
			Releases: v1.Releases, Shards: v1.Shards}}}
	buf, err := json.Marshal(jf)
	if err != nil {
		return journalFile{}, fmt.Errorf("coord: encoding migrated journal: %w", err)
	}
	if err := store.WriteFileAtomic(filepath.Join(c.dir, journalName), buf); err != nil {
		return journalFile{}, fmt.Errorf("coord: writing migrated journal: %w", err)
	}
	return jf, nil
}
