package coord_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
)

// goldenJournalPath holds the journal snapshots of goldenJournalOps, one
// per line, as the v3 format writes them. The engine version and the
// campaign IDs derived from it are replaced by placeholders, so an engine
// bump does not invalidate the file; a change to anything else in it is a
// change to the v3 journal format.
const goldenJournalPath = "testdata/journal_v3_golden.jsonl"

// goldenJournalOps drives a fixed operation sequence over every journaled
// transition — submit, lease, heartbeat, release, failure report, expiry
// into quarantine, completion, campaign validation, GC retirement — under
// a fake clock, and returns the journal after each step with the engine
// and campaign IDs replaced by placeholders.
func goldenJournalOps(t *testing.T) []byte {
	t.Helper()
	art := func(command []string, index, count int) []byte {
		a, err := experiments.RunShard(command, exec.Shard{Index: index, Count: count}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	now := time.Unix(1_700_000_000, 0)
	dir := t.TempDir()
	c, err := coord.New(dir, coord.Options{LeaseTTL: 10 * time.Second,
		Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	specs := []coord.Spec{
		{Engine: flit.EngineVersion, Command: campaignCommand, Shards: 2},
		{Engine: flit.EngineVersion, Command: secondCommand, Shards: 2, MaxAttempts: 2},
		{Engine: flit.EngineVersion, Command: campaignCommand, Shards: 1},
	}
	var out bytes.Buffer
	snap := func() {
		raw, err := os.ReadFile(filepath.Join(dir, "coord.json"))
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.ReplaceAll(raw, []byte(flit.EngineVersion), []byte("@ENGINE@"))
		for i, spec := range specs {
			raw = bytes.ReplaceAll(raw, []byte(coord.CampaignID(spec)), fmt.Appendf(nil, "@ID%d@", i))
		}
		out.Write(raw)
		out.WriteByte('\n')
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		snap()
	}
	lease := func(id, worker string) coord.Grant {
		t.Helper()
		g, state, err := c.Lease(id, worker)
		if err != nil || state != coord.Granted {
			t.Fatalf("lease %s for %s: state=%v err=%v", id, worker, state, err)
		}
		snap()
		return g
	}
	complete := func(id, worker string, g coord.Grant, artifact []byte) {
		t.Helper()
		_, _, _, err := c.Complete(id, worker, g.LeaseID, g.Shard, artifact)
		must(err)
	}

	snap()
	a, _, err := c.Submit(specs[0])
	must(err)
	b, _, err := c.Submit(specs[1])
	must(err)
	ga0 := lease(a, "w1")
	now = now.Add(3 * time.Second)
	must(c.Heartbeat(a, "w1", ga0.LeaseID, ga0.Shard))
	ga1 := lease(a, "w2")
	must(c.Release(a, "w2", ga1.LeaseID, ga1.Shard))
	gb := lease(b, "w1")
	now = now.Add(time.Second)
	_, _, _, err = c.Fail(b, "w1", gb.LeaseID, gb.Shard, "exit status 3", "stderr: boom")
	must(err)
	lease(b, "w2") // shard 0 again: its second and last attempt
	now = now.Add(11 * time.Second)
	gb1 := lease(b, "w3") // sweeps the expired lease into quarantine, grants shard 1
	complete(a, "w1", ga0, art(campaignCommand, 0, 2))
	ga1 = lease(a, "w2")
	complete(a, "w2", ga1, art(campaignCommand, 1, 2))
	complete(b, "w3", gb1, art(secondCommand, 1, 2))
	c3, _, err := c.Submit(specs[2])
	must(err)
	g3 := lease(c3, "w1")
	complete(c3, "w1", g3, art(campaignCommand, 0, 1))
	res, err := c.GC(1, false)
	if err != nil || len(res.Retired) != 1 || res.Retired[0] != a {
		t.Fatalf("gc = %+v, %v; want %s retired", res, err, a)
	}
	snap()
	return out.Bytes()
}

// TestJournalBytesUnchanged: the v3 journal written for a fixed operation
// sequence is byte-identical, step by step, to the committed snapshots.
// The in-memory shard table may change shape; its journal encoding may
// not, or journals written by older builds would stop round-tripping.
func TestJournalBytesUnchanged(t *testing.T) {
	got := goldenJournalOps(t)
	want, err := os.ReadFile(goldenJournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("journal after step %d differs:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("journal sequence has %d steps, want %d", len(gotLines), len(wantLines))
}
