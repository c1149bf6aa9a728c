package coord_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
)

// writeV1Dir lays out a coordinator directory as the single-campaign
// version-1 journal format left it: a flat artifacts/ root holding shard
// 0's artifact, and a journal recording shard 0 done and shard 1 leased.
func writeV1Dir(t *testing.T, engine string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "artifacts", "shard-0.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw := fmt.Sprintf(`{"version":1,"spec":{"engine":%q,"command":["experiments","table4"],"shards":2},`+
		`"seq":7,"releases":3,"shards":[{"done":true,"artifact":"shard-0.json"},`+
		`{"lease_id":"L7","worker":"w-old","expiry_unix_ms":%d}]}`,
		engine, time.Now().Add(time.Hour).UnixMilli())
	if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dirSnapshot maps every path under dir to its contents (directories to
// a marker), so a test can assert that an operation left it untouched.
func dirSnapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	snap := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			snap[path] = "<dir>"
			return nil
		}
		raw, err := os.ReadFile(path)
		snap[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestJournalRefusals: journals this build must not adopt — any format
// version but the current one (an older one is not reinterpreted, a newer
// one may record state this build cannot schedule faithfully), a journal
// fenced to a foreign engine, and garbage. Every refusal names what it
// found and leaves the directory byte for byte as it was.
func TestJournalRefusals(t *testing.T) {
	refused := func(t *testing.T, dir, want string) {
		t.Helper()
		before := dirSnapshot(t, dir)
		if _, err := coord.New(dir, coord.Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("journal adopted or refused for the wrong reason: %v (want %q)", err, want)
		}
		if after := dirSnapshot(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("refusal changed the directory:\nbefore %v\nafter  %v", before, after)
		}
	}
	versionErr := func(v int) string {
		return fmt.Sprintf("journal format v%d, this build reads only v%d", v, coord.JournalVersion)
	}
	t.Run("newer-version", func(t *testing.T) {
		dir := t.TempDir()
		raw := fmt.Sprintf(`{"version": %d, "engine": %q, "campaigns": []}`,
			coord.JournalVersion+1, flit.EngineVersion)
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, dir, versionErr(coord.JournalVersion+1))
	})
	t.Run("older-version-v1", func(t *testing.T) {
		refused(t, writeV1Dir(t, flit.EngineVersion), versionErr(1))
	})
	t.Run("older-version-v2", func(t *testing.T) {
		// A current journal with a live lease, rewound to the version-2
		// shape: the same tenancy without the containment fields.
		dir := t.TempDir()
		c, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, state, err := c.Lease(id, "w-old"); err != nil || state != coord.Granted {
			t.Fatalf("lease: state=%v err=%v", state, err)
		}
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
		refused(t, dir, versionErr(2))
	})
	t.Run("foreign-engine-v1", func(t *testing.T) {
		// The format fence comes first: a version-1 journal is refused for
		// its version whatever engine it names.
		refused(t, writeV1Dir(t, "flit-go/alien"), versionErr(1))
	})
	t.Run("foreign-engine-v2", func(t *testing.T) {
		dir := t.TempDir()
		// Write a valid journal under an alien engine, then reopen with
		// this build's fence.
		c, err := coord.New(dir, coord.Options{Engine: "flit-go/alien"})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2}); err != nil {
			t.Fatal(err)
		}
		refused(t, dir, "not interchangeable")
	})
	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		refused(t, dir, "unreadable journal")
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
// mutate, and writes it back — the hand-editing the refusal and
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
