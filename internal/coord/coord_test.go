package coord_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// campaignCommand is the canonical campaign every test schedules: the
// Laghos bisect fan-out — cheap but non-trivial, and the same standard
// the CLI's shard/merge equivalence tests replay. secondCommand is the
// other tenant in the multi-campaign tests.
var (
	campaignCommand = []string{"experiments", "table4"}
	secondCommand   = []string{"experiments", "table3"}
)

// fastOpts is the test transport: production shape, millisecond scale.
func fastOpts() *store.RemoteOptions {
	return &store.RemoteOptions{
		Attempts:       4,
		BaseDelay:      time.Millisecond,
		MaxDelay:       4 * time.Millisecond,
		AttemptTimeout: 250 * time.Millisecond,
		Deadline:       10 * time.Second,
	}
}

// newCoord opens a coordinator over a fresh directory and submits the
// given campaigns, returning the coordinator and the campaign IDs.
func newCoord(t *testing.T, opts coord.Options, specs ...coord.Spec) (*coord.Coordinator, []string) {
	t.Helper()
	c, err := coord.New(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		id, created, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !created {
			t.Fatalf("campaign %s submitted twice", id)
		}
		ids = append(ids, id)
	}
	return c, ids
}

// serveCampaign starts a coordinator over dir with its object store and
// returns the Flaky fault injector wrapping the whole mux.
func serveCampaign(t *testing.T, c *coord.Coordinator) (*httptest.Server, *storetest.Flaky) {
	t.Helper()
	d, err := store.Open(filepath.Join(c.Dir(), "store"), c.Engine())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", store.Handler(d))
	mux.Handle("/v1/coord/", coord.Handler(c))
	flaky := storetest.NewFlaky(mux)
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)
	return srv, flaky
}

// runner builds the production worker unit: run the shard with the
// experiments drivers, write results through the server's object store.
func runner(t *testing.T, url string, j int) coord.Runner {
	t.Helper()
	remote, err := store.NewRemote(url, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	return func(command []string, shard exec.Shard) ([]byte, error) {
		return experiments.RunShard(command, shard, j, remote)
	}
}

// unshardedOutput renders command on a fresh engine — the byte-identity
// reference every converged campaign must reproduce.
func unshardedOutput(t *testing.T, command []string, j int) string {
	t.Helper()
	eng := experiments.NewEngineCap(j, 0)
	var buf bytes.Buffer
	if err := experiments.RunCommand(eng, command, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// mergedOutput replays one campaign's completed artifact set exactly as
// `flit merge` would and asserts the replay recomputed nothing.
func mergedOutput(t *testing.T, c *coord.Coordinator, id string, command []string, j int) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(c.ArtifactDir(id), "shard-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	arts := make([]*flit.Artifact, 0, len(files))
	for _, f := range files {
		a, err := flit.ReadArtifactFile(f)
		if err != nil {
			t.Fatalf("reading %s: %v", f, err)
		}
		arts = append(arts, a)
	}
	if err := flit.ValidateShardSet(arts); err != nil {
		t.Fatalf("completed campaign fails merge validation: %v", err)
	}
	eng := experiments.NewEngineCap(j, 0)
	if err := eng.ImportArtifacts(arts...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.RunCommand(eng, command, &buf); err != nil {
		t.Fatal(err)
	}
	if m := eng.CacheMetrics(); m.Runs.Misses != 0 {
		t.Errorf("merged replay recomputed %d runs; the shard set should cover everything", m.Runs.Misses)
	}
	return buf.String()
}

// TestCampaignsConvergeUnderFaults is the headline: TWO campaigns on one
// coordinator — a 4-shard table4 and a 2-shard table3 sharing one URL
// and one object store — run by two concurrent workers over HTTP,
// through a transport fault script (503s, stalls, truncations,
// corruption, foreign fences) aimed at coordination and object traffic
// alike, at j∈{1,8}. Each campaign's merged artifact set must replay
// byte-identical to its own unsharded run: cross-campaign isolation is
// exactly the claim the shared-store safety story makes. The conditional
// case aims the faults at conditional listings only (requests offering
// If-None-Match), so they land on 304s and on changed listings' 200s, and
// gives the clients enough attempts that no listing can exhaust its budget
// on the script alone: every fault must be consumed, and absorbed.
func TestCampaignsConvergeUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name        string
		j           int
		conditional bool
	}{{"j1", 1, false}, {"j8", 8, false}, {"j8-conditional", 8, true}} {
		j := tc.j
		t.Run(tc.name, func(t *testing.T) {
			want1 := unshardedOutput(t, campaignCommand, j)
			want2 := unshardedOutput(t, secondCommand, j)
			c, ids := newCoord(t, coord.Options{LeaseTTL: 2 * time.Second},
				coord.Spec{Command: campaignCommand, Shards: 4},
				coord.Spec{Command: secondCommand, Shards: 2})
			srv, flaky := serveCampaign(t, c)
			opts := fastOpts()
			if tc.conditional {
				flaky.Match = func(r *http.Request) bool { return r.Header.Get("If-None-Match") != "" }
				flaky.Push(storetest.Err503, storetest.Stall, storetest.Pass,
					storetest.Truncate, storetest.Corrupt, storetest.Err503)
				opts.Attempts = 8
			} else {
				flaky.Push(storetest.Err503, storetest.Pass, storetest.Stall, storetest.Pass,
					storetest.Truncate, storetest.Corrupt, storetest.Pass, storetest.Err503,
					storetest.WrongEngine, storetest.Pass, storetest.Err503)
			}

			var wg sync.WaitGroup
			errs := make([]error, 2)
			for w := 0; w < 2; w++ {
				cl, err := coord.NewClient(srv.URL, flit.EngineVersion, opts)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(w int, cl *coord.Client) {
					defer wg.Done()
					_, errs[w] = coord.Work(context.Background(), cl, runner(t, srv.URL, j),
						coord.WorkerOptions{Name: fmt.Sprintf("w%d", w), PollEvery: 10 * time.Millisecond})
				}(w, cl)
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}
			select {
			case <-c.Done():
			default:
				t.Fatal("workers returned but the tenancy is not done")
			}
			if n := flaky.Pending(); tc.conditional && n != 0 {
				t.Fatalf("%d scripted faults never met a conditional listing", n)
			}
			commands := [][]string{campaignCommand, secondCommand}
			for i, want := range []string{want1, want2} {
				command := commands[i]
				st, err := c.Status(ids[i])
				if err != nil {
					t.Fatal(err)
				}
				if !st.Complete || !st.Validated {
					t.Fatalf("campaign %s not validated: %+v", ids[i], st)
				}
				if got := mergedOutput(t, c, ids[i], command, j); got != want {
					t.Errorf("j=%d: campaign %s merged output differs from its unsharded run", j, ids[i])
				}
			}
		})
	}
}

// TestLeaseExpiryReLease drives the straggler path against the state
// machine directly with an injected clock: a worker that stops
// heartbeating loses its shard on the next sweep, the shard is re-leased
// to a second worker, and the first worker's lease is dead.
func TestLeaseExpiryReLease(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second, Now: clock},
		coord.Spec{Command: campaignCommand, Shards: 1})
	id := ids[0]
	g1, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("first lease: state=%v err=%v", state, err)
	}
	// Heartbeats keep it alive across the TTL boundary.
	now = now.Add(8 * time.Second)
	if err := c.Heartbeat(id, "w1", g1.LeaseID, g1.Shard); err != nil {
		t.Fatalf("heartbeat on a live lease: %v", err)
	}
	if _, state, _ := c.Lease(id, "w2"); state != coord.Wait {
		t.Fatalf("second worker got state %v while the shard is leased, want Wait", state)
	}
	// Silence past the TTL: the sweep must hand the shard to w2.
	now = now.Add(11 * time.Second)
	g2, state, err := c.Lease(id, "w2")
	if err != nil || state != coord.Granted {
		t.Fatalf("re-lease after expiry: state=%v err=%v", state, err)
	}
	if g2.Shard != g1.Shard || g2.LeaseID == g1.LeaseID {
		t.Fatalf("re-lease = %+v, want same shard under a fresh lease (was %+v)", g2, g1)
	}
	if n := c.Releases(); n != 1 {
		t.Fatalf("releases = %d, want 1", n)
	}
	if err := c.Heartbeat(id, "w1", g1.LeaseID, g1.Shard); !errors.Is(err, coord.ErrLeaseLost) {
		t.Fatalf("stale heartbeat = %v, want ErrLeaseLost", err)
	}
	// An expired-but-unsuperseded lease, by contrast, renews: drop w2's
	// lease past its TTL without anyone else asking, then heartbeat.
	now = now.Add(11 * time.Second)
	if err := c.Heartbeat(id, "w2", g2.LeaseID, g2.Shard); err != nil {
		t.Fatalf("renewing an expired, unsuperseded lease: %v", err)
	}
}

// TestStatusNeverStealsLeases pins the PR 8 regression: a status poll
// landing in a heartbeat gap must be a pure read. Stall a worker's
// heartbeats past the TTL, hammer Status and Campaigns, and the
// expired-but-unreclaimed lease must survive — reported with a negative
// expires_in_ms, releases pinned at 0 — so the worker's next heartbeat
// still revives it. The old Status swept and journaled, reclaiming the
// lease and stranding the in-flight worker.
func TestStatusNeverStealsLeases(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second, Now: clock},
		coord.Spec{Command: campaignCommand, Shards: 1})
	id := ids[0]
	g, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	// The heartbeat gap: the lease is 5s past its TTL and nobody has swept.
	now = now.Add(15 * time.Second)
	for i := 0; i < 100; i++ {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Leases) != 1 {
			t.Fatalf("status poll %d: lease vanished from a read path: %+v", i, st)
		}
		if ms := st.Leases[0].ExpiresMS; ms >= 0 {
			t.Fatalf("status poll %d: expired lease reports expires_in_ms=%d, want negative", i, ms)
		}
		if infos := c.Campaigns(); infos[0].Leases != 1 {
			t.Fatalf("campaigns poll %d: lease vanished from the fleet view: %+v", i, infos[0])
		}
	}
	if n := c.Releases(); n != 0 {
		t.Fatalf("status polling released %d leases, want 0", n)
	}
	// The worker comes back: its heartbeat must still revive the lease.
	if err := c.Heartbeat(id, "w1", g.LeaseID, g.Shard); err != nil {
		t.Fatalf("heartbeat after status hammering: %v (the poll stole the lease)", err)
	}
	// Revived means re-owned: another worker now waits instead of stealing.
	if _, state, _ := c.Lease(id, "w2"); state != coord.Wait {
		t.Fatalf("post-revival lease state = %v, want Wait", state)
	}
	if n := c.Releases(); n != 0 {
		t.Fatalf("releases = %d after revival, want 0", n)
	}
}

// TestHeartbeatLossReLeaseAndDuplicateCompletion proves the full
// crash-recovery story over HTTP: worker w1 leases the only shard and
// goes silent (the crash), the lease expires, worker w2's lease polling
// sweeps it, re-leases, and completes the campaign — and then w1 comes
// back from the dead and reports the same shard twice more under its
// stale lease. Every completion must be accepted, the artifact file must
// stay byte-stable, and the campaign must validate.
func TestHeartbeatLossReLeaseAndDuplicateCompletion(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 200 * time.Millisecond},
		coord.Spec{Command: campaignCommand, Shards: 1})
	id := ids[0]
	srv, flaky := serveCampaign(t, c)
	// The dying worker's requests hit transport faults too — they must
	// cost retries, not correctness. Aim the script at coordination calls
	// only so the object-store warmup stays clean.
	flaky.Match = func(r *http.Request) bool {
		return strings.HasPrefix(r.URL.Path, "/v1/coord/")
	}
	flaky.Push(storetest.Err503, storetest.Pass, storetest.Err503)

	ctx := context.Background()
	cl1, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	g1, state, err := cl1.Lease(ctx, id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("w1 lease: state=%v err=%v", state, err)
	}
	// w1 computes its artifact, then "crashes": no heartbeat ever arrives.
	art1, err := runner(t, srv.URL, 2)(g1.Command, exec.Shard{Index: g1.Shard, Count: g1.Count})
	if err != nil {
		t.Fatal(err)
	}
	// w2 starts polling right away. Status no longer sweeps, so w2's own
	// lease polls are what reclaim the expired lease — exactly the
	// production path.
	cl2, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := coord.Work(ctx, cl2, runner(t, srv.URL, 2),
		coord.WorkerOptions{Name: "w2", PollEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("w2: %v", err)
	}
	if stats.Completed != 1 {
		t.Fatalf("w2 completed %d shards, want 1", stats.Completed)
	}
	if n := c.Releases(); n < 1 {
		t.Fatalf("releases = %d after a heartbeat loss, want >= 1", n)
	}
	artPath := filepath.Join(c.ArtifactDir(id), "shard-0.json")
	canonical, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	// The ghost returns: duplicate completions under a long-dead lease.
	for i := 0; i < 2; i++ {
		campaignDone, allDone, _, err := cl1.Complete(ctx, id, "w1", g1.LeaseID, g1.Shard, art1)
		if err != nil {
			t.Fatalf("duplicate completion %d rejected: %v", i, err)
		}
		if !campaignDone || !allDone {
			t.Errorf("duplicate completion %d over a finished campaign reported done=%v allDone=%v", i, campaignDone, allDone)
		}
	}
	after, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical, after) {
		t.Error("duplicate completion changed the stored artifact bytes")
	}
	if st, err := c.Status(id); err != nil || !st.Complete || !st.Validated || st.Done != 1 {
		t.Fatalf("campaign state after duplicates: %+v (%v)", st, err)
	}
	if got, want := mergedOutput(t, c, id, campaignCommand, 2), unshardedOutput(t, campaignCommand, 2); got != want {
		t.Error("merged output differs from unsharded run after re-lease + duplicates")
	}
}

// TestCoordinatorRestartRecovery kills the coordinator mid-campaign and
// reopens its directory: every campaign resumes, completions stay
// completed, the in-flight lease stays leased under its original ID (the
// worker keeps heartbeating it), and the campaign finishes with no
// duplicate or lost shards.
func TestCoordinatorRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := coord.Spec{Command: campaignCommand, Shards: 3}
	c1, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(shard, count int) []byte {
		art, err := experiments.RunShard(campaignCommand, exec.Shard{Index: shard, Count: count}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return art
	}
	g0, state, err := c1.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease 0: %v %v", state, err)
	}
	if _, _, _, err := c1.Complete(id, "w1", g0.LeaseID, g0.Shard, run(g0.Shard, g0.Count)); err != nil {
		t.Fatal(err)
	}
	g1, state, err := c1.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease 1: %v %v", state, err)
	}
	// Crash: c1 is abandoned with shard 0 done and shard 1 mid-flight.
	c2, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	infos := c2.Campaigns()
	if len(infos) != 1 || infos[0].ID != id || infos[0].Shards != 3 {
		t.Fatalf("recovered tenancy = %+v, want campaign %s with 3 shards", infos, id)
	}
	st, err := c2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || len(st.Completed) != 1 || st.Completed[0] != g0.Shard {
		t.Fatalf("recovered completions: %+v", st)
	}
	if len(st.Leases) != 1 || st.Leases[0].LeaseID != g1.LeaseID || st.Leases[0].Shard != g1.Shard {
		t.Fatalf("recovered leases: %+v, want %s on shard %d", st.Leases, g1.LeaseID, g1.Shard)
	}
	// The worker's heartbeat (same lease ID) lands on the recovered state.
	if err := c2.Heartbeat(id, "w1", g1.LeaseID, g1.Shard); err != nil {
		t.Fatalf("heartbeat across restart: %v", err)
	}
	// Finish: the in-flight shard completes, a fresh worker takes the last
	// one. Leasing must hand out exactly the one remaining shard — a
	// duplicate grant would double-run, a lost one would stall.
	if _, _, _, err := c2.Complete(id, "w1", g1.LeaseID, g1.Shard, run(g1.Shard, g1.Count)); err != nil {
		t.Fatal(err)
	}
	g2, state, err := c2.Lease(id, "w2")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease 2: %v %v", state, err)
	}
	if g2.Shard == g0.Shard || g2.Shard == g1.Shard {
		t.Fatalf("recovered coordinator re-granted shard %d", g2.Shard)
	}
	if _, _, _, err := c2.Complete(id, "w2", g2.LeaseID, g2.Shard, run(g2.Shard, g2.Count)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("campaign did not finish after recovery")
	}
	if st, err := c2.Status(id); err != nil || !st.Complete || !st.Validated {
		t.Fatalf("recovered campaign not validated: %+v (%v)", st, err)
	}
	if got, want := mergedOutput(t, c2, id, campaignCommand, 2), unshardedOutput(t, campaignCommand, 2); got != want {
		t.Error("merged output differs from unsharded run after coordinator restart")
	}
}

// TestSubmitIdempotentAndDistinct: re-submitting a spec names the
// existing campaign (created=false, same ID); a spec differing in any
// coordinate — command or shard count — is a distinct campaign. What
// used to be "refusing to mix campaigns" is now simply tenancy.
func TestSubmitIdempotentAndDistinct(t *testing.T) {
	c, ids := newCoord(t, coord.Options{}, coord.Spec{Command: campaignCommand, Shards: 2})
	id, created, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2})
	if err != nil || created || id != ids[0] {
		t.Fatalf("re-submit = (%s, %v, %v), want (%s, false, nil)", id, created, err, ids[0])
	}
	id2, created, err := c.Submit(coord.Spec{Command: secondCommand, Shards: 2})
	if err != nil || !created || id2 == ids[0] {
		t.Fatalf("distinct command = (%s, %v, %v), want fresh campaign", id2, created, err)
	}
	id3, created, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 5})
	if err != nil || !created || id3 == ids[0] || id3 == id2 {
		t.Fatalf("distinct shard count = (%s, %v, %v), want fresh campaign", id3, created, err)
	}
	if infos := c.Campaigns(); len(infos) != 3 ||
		infos[0].ID != ids[0] || infos[1].ID != id2 || infos[2].ID != id3 {
		t.Fatalf("tenancy = %+v, want submission order [%s %s %s]", infos, ids[0], id2, id3)
	}
	// Unknown campaigns answer ErrNoCampaign everywhere.
	if _, _, err := c.Lease("c0000000000000000", "w"); !errors.Is(err, coord.ErrNoCampaign) {
		t.Fatalf("lease on unknown campaign = %v, want ErrNoCampaign", err)
	}
	if _, err := c.Status("c0000000000000000"); !errors.Is(err, coord.ErrNoCampaign) {
		t.Fatalf("status on unknown campaign = %v, want ErrNoCampaign", err)
	}
}

// TestGCRetiresSupersededGenerations: completed campaigns sharing a
// command are generations of one study; GC keeps the newest keep per
// command and retires the rest — journal first, then artifact files —
// while running campaigns are never touched.
func TestGCRetiresSupersededGenerations(t *testing.T) {
	dir := t.TempDir()
	c, err := coord.New(dir, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	finish := func(spec coord.Spec) string {
		t.Helper()
		id, _, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < spec.Shards; i++ {
			g, state, err := c.Lease(id, "w")
			if err != nil || state != coord.Granted {
				t.Fatalf("lease: %v %v", state, err)
			}
			art, err := experiments.RunShard(spec.Command, exec.Shard{Index: g.Shard, Count: g.Count}, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := c.Complete(id, "w", g.LeaseID, g.Shard, art); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	oldGen := finish(coord.Spec{Command: campaignCommand, Shards: 2})
	newGen := finish(coord.Spec{Command: campaignCommand, Shards: 3})
	running, _, err := c.Submit(coord.Spec{Command: secondCommand, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Dry run plans without touching anything.
	res, err := c.GC(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retired) != 1 || res.Retired[0] != oldGen || res.Kept != 2 {
		t.Fatalf("dry-run plan = %+v, want retire [%s] keep 2", res, oldGen)
	}
	if _, err := c.Status(oldGen); err != nil {
		t.Fatalf("dry run retired the campaign: %v", err)
	}
	// The real pass retires the superseded generation only.
	res, err = c.GC(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retired) != 1 || res.Retired[0] != oldGen {
		t.Fatalf("gc = %+v, want retire [%s]", res, oldGen)
	}
	if _, err := c.Status(oldGen); !errors.Is(err, coord.ErrNoCampaign) {
		t.Fatalf("retired campaign still answers status: %v", err)
	}
	if _, err := os.Stat(c.ArtifactDir(oldGen)); !os.IsNotExist(err) {
		t.Fatalf("retired campaign's artifact dir survives: %v", err)
	}
	for _, id := range []string{newGen, running} {
		if _, err := c.Status(id); err != nil {
			t.Fatalf("gc touched surviving campaign %s: %v", id, err)
		}
	}
	if _, err := os.Stat(filepath.Join(c.ArtifactDir(newGen), "shard-0.json")); err != nil {
		t.Fatalf("surviving generation lost artifacts: %v", err)
	}
	// The retirement is journaled: a restart recovers the pruned tenancy.
	c2, err := coord.New(dir, coord.Options{})
	if err != nil {
		t.Fatalf("recovery after gc: %v", err)
	}
	infos := c2.Campaigns()
	if len(infos) != 2 || infos[0].ID != newGen || infos[1].ID != running {
		t.Fatalf("recovered tenancy after gc = %+v", infos)
	}
}

// TestCompleteRejectsForeignArtifacts: completions carrying the wrong
// engine, command, or shard coordinates must be refused — they would
// poison the merge.
func TestCompleteRejectsForeignArtifacts(t *testing.T) {
	c, ids := newCoord(t, coord.Options{}, coord.Spec{Command: campaignCommand, Shards: 2})
	id := ids[0]
	g, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: %v %v", state, err)
	}
	// Wrong shard coordinates: an artifact of shard 1 reported as shard 0.
	other, err := experiments.RunShard(campaignCommand, exec.Shard{Index: 1, Count: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Complete(id, "w1", g.LeaseID, g.Shard, other); err == nil {
		t.Error("artifact with foreign shard coordinates accepted")
	}
	// Wrong command — which in the multi-tenant world also means an
	// artifact of one campaign reported against another.
	foreign, err := experiments.RunShard(secondCommand, exec.Shard{Index: 0, Count: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Complete(id, "w1", g.LeaseID, g.Shard, foreign); err == nil {
		t.Error("artifact recording a foreign command accepted")
	}
	// Garbage bytes.
	if _, _, _, err := c.Complete(id, "w1", g.LeaseID, g.Shard, []byte("{")); err == nil {
		t.Error("undecodable artifact accepted")
	}
	if st, err := c.Status(id); err != nil || st.Done != 0 {
		t.Fatalf("rejected completions still marked shards done: %+v (%v)", st, err)
	}
}

// TestWorkDrainCancelsScheduling pins the satellite-2 fix end to end: a
// worker whose every shard is leased elsewhere sits in its poll loop;
// cancelling its context must abort the scheduling calls immediately —
// not after the transport's 30s operation deadline — and return
// context.Canceled.
func TestWorkDrainCancelsScheduling(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: time.Minute},
		coord.Spec{Command: campaignCommand, Shards: 1})
	if _, state, err := c.Lease(ids[0], "hog"); err != nil || state != coord.Granted {
		t.Fatalf("hog lease: %v %v", state, err)
	}
	srv, _ := serveCampaign(t, c)
	// Production-scale deadlines: if the drain relied on the operation
	// deadline instead of ctx, this test would take 30s and fail the
	// timeout below.
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := coord.Work(ctx, cl, runner(t, srv.URL, 2),
			coord.WorkerOptions{Name: "drainee", PollEvery: 50 * time.Millisecond})
		done <- err
	}()
	time.Sleep(150 * time.Millisecond) // let it reach the poll loop
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("drained Work returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Work did not return promptly; drain is riding out transport deadlines")
	}
}
