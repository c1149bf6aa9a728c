package coord_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
)

// v1Journal is the exact PR 8 single-campaign journal shape, written by
// hand because the current build only reads it.
type v1Journal struct {
	Version  int      `json:"version"`
	Spec     v1Spec   `json:"spec"`
	Seq      int64    `json:"seq"`
	Releases int64    `json:"releases"`
	Shards   []v1Shrd `json:"shards"`
}

type v1Spec struct {
	Engine  string   `json:"engine"`
	Command []string `json:"command"`
	Shards  int      `json:"shards"`
}

type v1Shrd struct {
	Done         bool   `json:"done,omitempty"`
	Artifact     string `json:"artifact,omitempty"`
	LeaseID      string `json:"lease_id,omitempty"`
	Worker       string `json:"worker,omitempty"`
	ExpiryUnixMS int64  `json:"expiry_unix_ms,omitempty"`
}

// writeV1Dir lays out a PR 8 coordinator directory: flat artifacts/ with
// shard 0 completed (a real artifact), shard 1 under a live lease.
func writeV1Dir(t *testing.T, engine string) (dir string, art0 []byte) {
	t.Helper()
	dir = t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
		t.Fatal(err)
	}
	art0, err := experiments.RunShard(campaignCommand, exec.Shard{Index: 0, Count: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "artifacts", "shard-0.json"), art0, 0o644); err != nil {
		t.Fatal(err)
	}
	j := v1Journal{
		Version:  1,
		Spec:     v1Spec{Engine: engine, Command: campaignCommand, Shards: 2},
		Seq:      7,
		Releases: 3,
		Shards: []v1Shrd{
			{Done: true, Artifact: "shard-0.json"},
			{LeaseID: "L7", Worker: "w-old", ExpiryUnixMS: time.Now().Add(time.Hour).UnixMilli()},
		},
	}
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "coord.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, art0
}

// TestJournalV1Migration: a PR 8 single-campaign coord.json resumes as a
// one-campaign tenancy byte-compatibly — done shards stay done (their
// artifact files move into the per-campaign directory), live lease IDs
// keep working, and the straggler counter carries over.
func TestJournalV1Migration(t *testing.T) {
	dir, _ := writeV1Dir(t, flit.EngineVersion)
	c, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("migrating a v1 journal: %v", err)
	}
	wantID := coord.CampaignID(coord.Spec{Engine: flit.EngineVersion, Command: campaignCommand, Shards: 2})
	infos := c.Campaigns()
	if len(infos) != 1 || infos[0].ID != wantID {
		t.Fatalf("migrated tenancy = %+v, want one campaign %s", infos, wantID)
	}
	st, err := c.Status(wantID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || len(st.Completed) != 1 || st.Completed[0] != 0 {
		t.Fatalf("migrated completions: %+v, want shard 0 done", st)
	}
	if st.Releases != 3 {
		t.Fatalf("migrated releases = %d, want 3", st.Releases)
	}
	if len(st.Leases) != 1 || st.Leases[0].LeaseID != "L7" || st.Leases[0].Shard != 1 {
		t.Fatalf("migrated leases: %+v, want L7 on shard 1", st.Leases)
	}
	// The artifact moved into the campaign's directory.
	if _, err := os.Stat(filepath.Join(c.ArtifactDir(wantID), "shard-0.json")); err != nil {
		t.Fatalf("migrated artifact not in campaign dir: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "artifacts", "shard-0.json")); !os.IsNotExist(err) {
		t.Fatalf("migrated artifact still at the v1 path: %v", err)
	}
	// The live lease keeps working: the old worker heartbeats and
	// completes under its pre-migration lease ID.
	if err := c.Heartbeat(wantID, "w-old", "L7", 1); err != nil {
		t.Fatalf("heartbeat on a migrated lease: %v", err)
	}
	art1, err := experiments.RunShard(campaignCommand, exec.Shard{Index: 1, Count: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Complete(wantID, "w-old", "L7", 1, art1); err != nil {
		t.Fatalf("completing a migrated lease: %v", err)
	}
	if st, err := c.Status(wantID); err != nil || !st.Complete || !st.Validated {
		t.Fatalf("migrated campaign did not finish: %+v (%v)", st, err)
	}
	// New leases do not collide with pre-migration IDs: seq carried over.
	id2, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, state, err := c.Lease(id2, "w-new")
	if err != nil || state != coord.Granted {
		t.Fatalf("fresh lease after migration: %v %v", state, err)
	}
	if g.LeaseID == "L7" {
		t.Fatal("fresh lease reused a migrated lease ID")
	}
	// Migration is one-way and stable: reopening recovers the v2 tenancy.
	c2, err := coord.New(dir, coord.Options{})
	if err != nil {
		t.Fatalf("reopening a migrated directory: %v", err)
	}
	if infos := c2.Campaigns(); len(infos) != 2 {
		t.Fatalf("reopened tenancy = %+v, want 2 campaigns", infos)
	}
}

// TestJournalV1MigrationResumesAfterCrash: a crash after the artifact
// moves but before the v2 journal lands leaves the v1 journal naming
// files that already sit at their v2 paths; the next open must treat the
// completed move as success.
func TestJournalV1MigrationResumesAfterCrash(t *testing.T) {
	dir, art0 := writeV1Dir(t, flit.EngineVersion)
	// Simulate the torn state: the file already moved, the journal did not.
	wantID := coord.CampaignID(coord.Spec{Engine: flit.EngineVersion, Command: campaignCommand, Shards: 2})
	if err := os.MkdirAll(filepath.Join(dir, "artifacts", wantID), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "artifacts", "shard-0.json"),
		filepath.Join(dir, "artifacts", wantID, "shard-0.json")); err != nil {
		t.Fatal(err)
	}
	c, err := coord.New(dir, coord.Options{})
	if err != nil {
		t.Fatalf("resuming a torn migration: %v", err)
	}
	st, err := c.Status(wantID)
	if err != nil || st.Done != 1 {
		t.Fatalf("resumed migration lost the done shard: %+v (%v)", st, err)
	}
	got, err := os.ReadFile(filepath.Join(c.ArtifactDir(wantID), "shard-0.json"))
	if err != nil || string(got) != string(art0) {
		t.Fatalf("resumed migration damaged the artifact: %v", err)
	}
}

// TestJournalRefusals: journals this build must not adopt — a newer
// format version (its state may not be schedulable faithfully) and any
// journal fenced to a foreign engine, in both v1 and v2 forms.
func TestJournalRefusals(t *testing.T) {
	t.Run("newer-version", func(t *testing.T) {
		dir := t.TempDir()
		raw := fmt.Sprintf(`{"version": %d, "engine": %q, "campaigns": []}`,
			coord.JournalVersion+1, flit.EngineVersion)
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "journal format") {
			t.Fatalf("newer journal adopted: %v", err)
		}
	})
	t.Run("foreign-engine-v1", func(t *testing.T) {
		dir, _ := writeV1Dir(t, "flit-go/alien")
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "not interchangeable") {
			t.Fatalf("foreign-engine v1 journal adopted: %v", err)
		}
	})
	t.Run("foreign-engine-v2", func(t *testing.T) {
		dir := t.TempDir()
		// Write a valid v2 journal under an alien engine, then reopen with
		// this build's fence.
		c, err := coord.New(dir, coord.Options{Engine: "flit-go/alien"})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "not interchangeable") {
			t.Fatalf("foreign-engine v2 journal adopted: %v", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "unreadable journal") {
			t.Fatalf("garbage journal adopted: %v", err)
		}
	})
}

// TestClientReportsLastStatusOnDamagedBody pins the satellite-3 fix: a
// server that answers 200 with an undecodable body exhausts the retry
// budget, and the error must name the real last status (200), not the
// zero value the old code reported after discarding the attempt.
func TestClientReportsLastStatusOnDamagedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "{damaged")
	}))
	t.Cleanup(srv.Close)
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Status(t.Context(), "c1234")
	if err == nil {
		t.Fatal("damaged 200 responses produced no error")
	}
	if !strings.Contains(err.Error(), "last status 200") {
		t.Fatalf("exhausted error = %q, want it to report last status 200", err)
	}
	if strings.Contains(err.Error(), "status 0") {
		t.Fatalf("exhausted error still reports the discarded status: %q", err)
	}
	if !strings.Contains(err.Error(), "malformed response") {
		t.Fatalf("exhausted error = %q, want the decode failure preserved", err)
	}
}

// TestClientCtxCancelAborts: a cancelled context stops a client call
// mid-retry instead of riding out the operation deadline — the
// scheduling half of the satellite-2 ctx threading.
func TestClientCtxCancelAborts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answer: only cancellation ends the attempt
	}))
	t.Cleanup(srv.Close)
	// Production-scale deadlines (5s per attempt, 30s per operation); only
	// ctx can end this in milliseconds.
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Campaigns(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled call reported success")
		}
		if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("cancelled call returned %v, want a context cancellation", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled call did not return promptly; it is riding out the transport deadline")
	}
}

// rewriteJournal decodes dir's coord.json into a generic map, applies
// mutate, and writes it back — the hand-editing the migration and
// corruption tests need to simulate journals this build did not write.
func rewriteJournal(t *testing.T, dir string, mutate func(j map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "coord.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var j map[string]any
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatal(err)
	}
	mutate(j)
	out, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// journalShardField mutates one field of one shard record in a generic
// journal map.
func journalShardField(j map[string]any, campaign, shard int, field string, v any) {
	cs := j["campaigns"].([]any)
	sh := cs[campaign].(map[string]any)["shards"].([]any)
	sh[shard].(map[string]any)[field] = v
}

// TestJournalV2Migration: a PR 9 multi-tenant journal (version 2 — the
// v3 shape minus the containment fields) is adopted in place: the
// tenancy resumes with zero attempts and no quarantine, and the file on
// disk is atomically re-stamped to the current version so migration runs
// at most once.
func TestJournalV2Migration(t *testing.T) {
	dir := t.TempDir()
	c1, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c1.Submit(coord.Spec{Command: campaignCommand, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, state, err := c1.Lease(id, "w-old")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	// Rewind the snapshot to version 2: strip every v3 field, exactly as a
	// PR 9 build would have written it.
	rewriteJournal(t, dir, func(j map[string]any) {
		j["version"] = 2
		for _, ci := range j["campaigns"].([]any) {
			cm := ci.(map[string]any)
			delete(cm, "fail_reports")
			for _, si := range cm["shards"].([]any) {
				sm := si.(map[string]any)
				delete(sm, "attempts")
				delete(sm, "quarantined")
				delete(sm, "failures")
			}
		}
	})
	c2, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("migrating a v2 journal: %v", err)
	}
	st, err := c2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 0 || len(st.Failures) != 0 {
		t.Fatalf("v2 migration invented containment state: %+v", st)
	}
	// The migrated lease keeps working under its pre-migration ID. The
	// grant's attempt predates v3 accounting, so attempts start at zero.
	if err := c2.Heartbeat(id, "w-old", g.LeaseID, g.Shard); err != nil {
		t.Fatalf("heartbeat on a migrated lease: %v", err)
	}
	// The file was re-stamped in place.
	raw, err := os.ReadFile(filepath.Join(dir, "coord.json"))
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Version != coord.JournalVersion {
		t.Fatalf("migrated journal on disk is v%d, want re-stamp to v%d", probe.Version, coord.JournalVersion)
	}
	// Stable: a third open is an ordinary current-version recovery.
	if _, err := coord.New(dir, coord.Options{}); err != nil {
		t.Fatalf("reopening a migrated directory: %v", err)
	}
}

// TestJournalV3CorruptionRefusals: v3 containment state this build could
// not have written is refused rather than adopted — a negative attempt
// count or one beyond int32, a shard both done and quarantined (trusting either half could
// resurrect a quarantined shard as leasable), a negative report counter.
func TestJournalV3CorruptionRefusals(t *testing.T) {
	writeDir := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		c, err := coord.New(dir, coord.Options{})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		g, state, err := c.Lease(id, "w1")
		if err != nil || state != coord.Granted {
			t.Fatalf("lease: state=%v err=%v", state, err)
		}
		art, err := experiments.RunShard(campaignCommand, exec.Shard{Index: g.Shard, Count: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := c.Complete(id, "w1", g.LeaseID, g.Shard, art); err != nil {
			t.Fatal(err)
		}
		return dir, id
	}
	t.Run("negative-attempts", func(t *testing.T) {
		dir, _ := writeDir(t)
		rewriteJournal(t, dir, func(j map[string]any) {
			journalShardField(j, 0, 1, "attempts", -3)
		})
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "negative attempt") {
			t.Fatalf("negative attempts adopted: %v", err)
		}
	})
	t.Run("attempts-beyond-int32", func(t *testing.T) {
		dir, _ := writeDir(t)
		rewriteJournal(t, dir, func(j map[string]any) {
			journalShardField(j, 0, 1, "attempts", int64(math.MaxInt32)+1)
		})
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "beyond the 2147483647 this build counts") {
			t.Fatalf("attempt count beyond int32 adopted: %v", err)
		}
		// The largest count that fits is still adopted, and a lease on it
		// saturates instead of wrapping negative.
		rewriteJournal(t, dir, func(j map[string]any) {
			journalShardField(j, 0, 1, "attempts", math.MaxInt32)
		})
		c, err := coord.New(dir, coord.Options{MaxShardAttempts: math.MaxInt})
		if err != nil {
			t.Fatalf("attempt count at the int32 bound refused: %v", err)
		}
		id := c.Campaigns()[0].ID
		if _, state, err := c.Lease(id, "w2"); err != nil || state != coord.Granted {
			t.Fatalf("lease at the bound: state=%v err=%v", state, err)
		}
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Attempts[1] != math.MaxInt32 {
			t.Fatalf("attempts after a grant at the bound = %d, want it saturated at %d", st.Attempts[1], math.MaxInt32)
		}
	})
	t.Run("done-and-quarantined", func(t *testing.T) {
		dir, _ := writeDir(t)
		rewriteJournal(t, dir, func(j map[string]any) {
			journalShardField(j, 0, 0, "quarantined", true)
		})
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "both complete and quarantined") {
			t.Fatalf("done+quarantined shard adopted: %v", err)
		}
	})
	t.Run("negative-fail-reports", func(t *testing.T) {
		dir, _ := writeDir(t)
		rewriteJournal(t, dir, func(j map[string]any) {
			j["campaigns"].([]any)[0].(map[string]any)["fail_reports"] = -1
		})
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "negative failure count") {
			t.Fatalf("negative fail_reports adopted: %v", err)
		}
	})
}
